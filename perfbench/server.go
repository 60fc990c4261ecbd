package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ctl is the client for the server's control surfaces (/healthz, /metrics,
// /debug/vars), kept apart from the load clients' connections.
var ctl = &http.Client{Timeout: 10 * time.Second}

// child is a running partsrv process with default flags, bound to a free
// loopback port.
type child struct {
	cmd     *exec.Cmd
	url     string
	stdoutD chan struct{} // closed once stdout is drained to EOF
}

// startChild starts partsrv and returns once /healthz answers 200.
func startChild(bin string) (*child, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start partsrv: %w", err)
	}
	c := &child{cmd: cmd, stdoutD: make(chan struct{})}
	lines := bufio.NewScanner(out)
	const banner = "serving on "
	for lines.Scan() {
		if i := strings.Index(lines.Text(), banner); i >= 0 {
			c.url, _, _ = strings.Cut(lines.Text()[i+len(banner):], " ")
			break
		}
	}
	go func() {
		defer close(c.stdoutD)
		for lines.Scan() {
		}
	}()
	if c.url == "" {
		c.stop()
		return nil, errors.New("partsrv exited without announcing its address")
	}
	for {
		resp, err := ctl.Get(c.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			c.stop()
			return nil, fmt.Errorf("partsrv not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// stop interrupts the server, lets it drain, and waits for it to exit.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = c.cmd.Process.Kill()
		}
	}()
	<-c.stdoutD
	_ = c.cmd.Wait()
	close(done)
}

// peakRSSMiB returns the VmHWM of process pid (0 = this process) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// serverCounters is a reading of the partsrv counters the benchmark
// reports, from /metrics and /debug/vars.
type serverCounters struct {
	requests, computations, hits, shared, shed float64
	queueWaitSum, queueWaitCount               float64
	totalAlloc                                 float64 // bytes, runtime.MemStats.TotalAlloc
}

func (c *child) counters() (serverCounters, error) {
	var s serverCounters
	body, err := getBody(c.url + "/metrics")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		base, _, _ := strings.Cut(name, "{")
		switch base {
		case "partsrv_requests_total":
			s.requests += v
		case "partsrv_computations_total":
			s.computations += v
		case "partsrv_cache_hits_total":
			s.hits += v
		case "partsrv_singleflight_shared_total":
			s.shared += v
		case "partsrv_shed_total":
			s.shed += v
		case "partsrv_queue_wait_ns_sum":
			s.queueWaitSum += v
		case "partsrv_queue_wait_ns_count":
			s.queueWaitCount += v
		}
	}
	body, err = getBody(c.url + "/debug/vars")
	if err != nil {
		return s, err
	}
	var vars struct {
		Memstats struct{ TotalAlloc float64 } `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return s, fmt.Errorf("decode /debug/vars: %w", err)
	}
	s.totalAlloc = vars.Memstats.TotalAlloc
	return s, nil
}

func (s serverCounters) minus(o serverCounters) serverCounters {
	return serverCounters{
		requests: s.requests - o.requests, computations: s.computations - o.computations,
		hits: s.hits - o.hits, shared: s.shared - o.shared, shed: s.shed - o.shed,
		queueWaitSum: s.queueWaitSum - o.queueWaitSum, queueWaitCount: s.queueWaitCount - o.queueWaitCount,
		totalAlloc: s.totalAlloc - o.totalAlloc,
	}
}

func getBody(u string) ([]byte, error) {
	resp, err := ctl.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return b, nil
}
