package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"sfccube/internal/service"
)

// setupsPerRound is how many extra set-ups follow each round of the timed
// phase. With the first set-up and at least four rounds a run times at
// least nine; setup_s is their median. Spreading them over the run lets
// them meet the same host conditions as the timed requests.
const setupsPerRound = 2

// checkWorkers bounds the goroutines verifying responses between rounds.
const checkWorkers = 2

// setUp starts a server and times it from process start to its checked
// answer to the workload's set-up request.
func setUp(cfg runConfig, chk *checker, out *outcome) (*child, float64, error) {
	t0 := time.Now()
	c, err := startChild(cfg.partsrv)
	if err != nil {
		return nil, 0, err
	}
	first := newLoadClient(-1, nil)
	s := first.do(c.url, setupRequest(cfg.workload), false)
	d := time.Since(t0).Seconds()
	first.hc.CloseIdleConnections()
	if _, err := chk.checkSample(s); err != nil {
		out.fail(1, fmt.Sprintf("set-up %v", s.Req), err)
	}
	return c, d, nil
}

// runPartsrv drives one partsrv workload: set-up, warm-up, the timed phase
// in rounds with every response checked between rounds, and, in a traced
// run, the in-process replay of each round. The server of the first set-up
// serves the run; the later ones are stopped once timed.
func runPartsrv(cfg runConfig) (*outcome, error) {
	chk := newChecker()
	out := &outcome{layer: map[string]float64{}, detail: map[string]any{}}
	srv, setup0, err := setUp(cfg, chk, out)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	setups := []float64{setup0}

	cs := make([]*loadClient, clients)
	for i := range cs {
		var st Stream = newMetisStream(cfg.seed, i)
		if cfg.workload == "sfc-large-cold" {
			st = newSFCStream(cfg.seed, i)
		}
		cs[i] = newLoadClient(i, st)
	}
	warm, err := warmUp(srv.url, cfg.workload, cs)
	if err != nil {
		return nil, err
	}
	for _, s := range warm {
		if _, err := chk.checkSample(s); err != nil {
			out.fail(1, fmt.Sprintf("warm-up %v", s.Req), err)
		}
	}

	var (
		rec      *Recorder
		rp       *replayer
		samples  []*Sample
		timed    time.Duration
		useful   []float64
		need     = minSamplesFor(0.9)
		rounds   int
		roundCap = cfg.seconds / 4
	)
	if cfg.trace {
		rec = NewRecorder(time.Now())
		rp = newReplayer(rec)
	}
	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	// The timed phase lasts cfg.seconds, extended in short rounds until
	// p90 leaves minBeyond samples beyond it, up to twice as long.
	for timed < cfg.seconds || (len(samples) < need && timed < 2*cfg.seconds) {
		limit := roundCap
		if timed < cfg.seconds {
			limit = min(limit, cfg.seconds-timed)
		} else {
			limit /= 2
		}
		ss, d := round(srv.url, cs, limit, cfg.trace)
		rounds++
		timed += d
		resps := checkRound(chk, ss, out)
		for i := range ss {
			if resps[i] != nil {
				useful = append(useful, 1/float64(1+len(resps[i].Attempts)))
			}
		}
		if rp != nil {
			replayRound(rp, ss, resps, len(samples), out)
		}
		for _, s := range ss {
			recordHTTP(rec, len(samples), s)
			s.Bytes = len(s.Body)
			s.Body = nil
			samples = append(samples, s)
		}
		for i := 0; i < setupsPerRound; i++ {
			c, d, err := setUp(cfg, chk, out)
			if err != nil {
				return nil, err
			}
			c.stop()
			setups = append(setups, d)
		}
	}
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	var lat, latTraced, latPlain []float64
	ok, repeats := 0, 0
	for _, s := range samples {
		if s.Repeat {
			repeats++
		}
		l := ms(s.Latency())
		if s.CheckErr != nil {
			l = math.Inf(1) // a failed request misses every latency limit
		} else {
			ok++
		}
		lat = append(lat, l)
		if s.Traced {
			latTraced = append(latTraced, l)
		} else {
			latPlain = append(latPlain, l)
		}
	}
	// Set-up and warm-up answers are checked too.
	out.attempted = len(samples) + len(setups) + len(warm)
	d := after.minus(before)
	// The workload's mix is its repeat share; a repeat that missed the
	// cache (or a hit on a new key) means the server did other work than
	// the workload stands for, so the run is not a measurement of it.
	if out.failed == 0 && (d.hits != float64(repeats) || d.requests != float64(len(samples))) {
		return nil, fmt.Errorf("%d requests with %d repeated keys got %d cache hits in %d server requests",
			len(samples), repeats, int(d.hits), int(d.requests))
	}
	tail, _ := tailPercentile(len(lat))
	out.e2e = map[string]float64{
		"ops_per_s":       float64(ok) / timed.Seconds(),
		"latency_p50_ms":  percentile(lat, 0.5),
		"latency_p90_ms":  percentile(lat, 0.9),
		"ok_frac":         float64(ok) / float64(len(samples)),
		"alloc_mb_per_op": d.totalAlloc / (1 << 20) / float64(len(samples)),
		"peak_rss_mb":     rss,
		"setup_s":         percentile(setups, 0.5),
	}
	out.detail["samples"] = len(samples)
	out.detail["rounds"] = rounds
	out.detail["timed_s"] = timed.Seconds()
	out.detail["setups"] = len(setups)
	out.detail["tail_rule_percentile"] = tail
	out.detail["server_requests"] = d.requests
	out.detail["new_key_share"] = 1 - float64(repeats)/float64(len(samples))
	out.layer = map[string]float64{
		"service.computations":    d.computations,
		"service.hit_ratio":       d.hits / d.requests,
		"service.shared_ratio":    d.shared / d.requests,
		"service.queue_wait_ms":   d.queueWaitSum / math.Max(d.queueWaitCount, 1) / 1e6,
		"service.shed":            d.shed,
		"resilience.useful_ratio": mean(useful),
	}
	if cfg.trace {
		for k, v := range rp.metrics() {
			out.layer[k] = v
		}
		var ttfb, body, kb []float64
		for _, s := range samples {
			if s.Traced && s.CheckErr == nil {
				ttfb = append(ttfb, ms(s.FirstByte.Sub(s.Start)))
				body = append(body, ms(s.End.Sub(s.FirstByte)))
				kb = append(kb, float64(s.Bytes)/1024)
			}
		}
		out.layer["http.ttfb_ms"] = percentile(ttfb, 0.5)
		out.layer["http.body_ms"] = percentile(body, 0.5)
		out.layer["http.resp_kb"] = percentile(kb, 0.5)
		out.layer["trace.overhead_pct"] = 100 * (percentile(latTraced, 0.5)/percentile(latPlain, 0.5) - 1)
		out.spans = rec.Spans()
	}
	return out, nil
}

// checkRound verifies a round's responses on checkWorkers goroutines. It
// returns the decoded response of every sample that introduced a new key
// (nil for repeats and failures) and records failures on out.
func checkRound(chk *checker, ss []*Sample, out *outcome) []*service.Response {
	resps := make([]*service.Response, len(ss))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resps[i], ss[i].CheckErr = chk.checkSample(ss[i])
			}
		}()
	}
	// Issue order, so a key's first answer is checked before the repeats
	// of it.
	for _, i := range issueOrder(ss) {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, s := range ss {
		if s.CheckErr != nil {
			out.fail(1, s.Req.String(), s.CheckErr)
		}
	}
	return resps
}

// replayRound sends a round's requests through the in-process service in
// the order the server received them, and replays the layers of every
// traced request that missed. A replay whose output differs from the
// served body fails its sample.
func replayRound(rp *replayer, ss []*Sample, resps []*service.Response, base int, out *outcome) {
	for _, i := range issueOrder(ss) {
		s := ss[i]
		if s.CheckErr != nil {
			continue
		}
		miss, d, err := rp.serviceCall(base+i, s)
		if err == nil && miss && s.Traced {
			served := resps[i]
			if served == nil {
				served, err = parseResponse(s.Body)
			}
			if err == nil {
				err = rp.layers(base+i, s, served, d)
			}
		}
		if err != nil {
			s.CheckErr = err
			out.fail(1, s.Req.String(), err)
		}
	}
}

// issueOrder returns the indexes of ss in the order the requests were
// sent.
func issueOrder(ss []*Sample) []int {
	order := make([]int, len(ss))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return ss[a].Start.Compare(ss[b].Start) })
	return order
}

// recordHTTP adds a traced sample's client-side spans: the request, time
// to first byte, and the body transfer.
func recordHTTP(rec *Recorder, id int, s *Sample) {
	if rec == nil || !s.Traced || s.FirstByte.IsZero() {
		return
	}
	root := rec.Add("http.request", -1, id, s.Start, s.End)
	rec.Add("http.ttfb", root, id, s.Start, s.FirstByte)
	rec.Add("http.body", root, id, s.FirstByte, s.End)
}

// fail records a failed output check that fails n operations, printing
// the first few.
func (o *outcome) fail(n int, what string, err error) {
	o.failed += n
	if o.reported < 5 {
		o.reported++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %v\n", what, err)
	}
}
