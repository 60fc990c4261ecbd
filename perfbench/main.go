// Command perfbench is the repository's benchmark. It runs one workload —
// partition traffic against a partsrv child process (sfc-large-cold,
// metis-mixed) or the K=1536 SEAM step (seam-k1536) — checks every output,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1) as the last line of standard output. run.sh
// builds it and partsrv from the surrounding source tree; METRICS.md
// defines every metric and the end-to-end metric each layer should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports on every workload. An
// operation is a partition request on the partsrv workloads and one
// Runner.Run(1, dt) step at Workers = nproc on seam-k1536.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 run reports. A layer the workload
// never calls reads 0.
var perLayer = []metricDef{
	{"service.computations", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.shared_ratio", "ratio"},
	{"service.queue_wait_ms", "ms"},
	{"service.shed", "count"},
	{"resilience.useful_ratio", "ratio"},
	{"http.ttfb_ms", "ms"},
	{"http.body_ms", "ms"},
	{"http.resp_kb", "KiB"},
	{"service.hit_ms", "ms"},
	{"service.miss_ms", "ms"},
	{"mesh.new_ms", "ms"},
	{"graph.from_mesh_ms", "ms"},
	{"graph.alloc_mb", "MiB"},
	{"weights.generate_ms", "ms"},
	{"core.sfc_ms", "ms"},
	{"metis.partition_ms", "ms"},
	{"metis.fm_passes", "count"},
	{"metis.kway_passes", "count"},
	{"metis.kway_moves", "count"},
	{"metis.coarsen_levels", "count"},
	{"metis.rb_bisections", "count"},
	{"partition.stats_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.encode_kb", "KiB"},
	{"service.unattributed_ms", "ms"},
	{"seam.diff_ns_per_elem", "ns"},
	{"seam.rhs_ms", "ms"},
	{"seam.dss_ms", "ms"},
	{"seam.seq_step_ms", "ms"},
	{"seam.serial_step_ms", "ms"},
	{"seam.busy_ms", "ms"},
	{"seam.epoch_wait_ms", "ms"},
	{"seam.unattributed_ms", "ms"},
	{"seam.flops_per_step", "count"},
	{"seam.bytes_per_step_computed", "bytes"},
	{"seam.dss_bytes_per_step", "bytes"},
	{"seam.gflops_serial", "Gflop/s"},
	{"machine.model_step_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sfc-large-cold": runPartsrv,
	"metis-mixed":    runPartsrv,
	"seam-k1536":     runSEAM,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	partsrv  string // partsrv binary
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	reported          int // failures printed so far
	e2e, layer        map[string]float64
	detail            map[string]any
	spans             []Span
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var seconds, trace int
	var root, outDir string
	flag.StringVar(&cfg.workload, "workload", "", "workload: sfc-large-cold, metis-mixed or seam-k1536")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.partsrv, "partsrv", "", "partsrv binary built from the same tree")
	flag.StringVar(&root, "root", ".", "repository root (for the source digest)")
	flag.StringVar(&outDir, "out", ".bench_build/traces", "directory for span traces")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of sfc-large-cold, metis-mixed, seam-k1536), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if cfg.partsrv == "" && cfg.workload != "seam-k1536" {
		fmt.Fprintln(os.Stderr, "perfbench: --partsrv is required for the partsrv workloads")
		os.Exit(2)
	}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.trace {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(2)
		}
		out.detail["spans"] = path
	}
	out.detail["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": seconds, "trace": trace,
		"host": hostFingerprint(root), "detail": out.detail,
	}
	if cfg.trace {
		info["end_to_end"] = out.e2e
	}
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a failed run leaves a metric without a finite value
			// (a latency percentile among failed requests, or a layer no
			// sample reached); the result is already marked incorrect or
			// the layer reads as not exercised.
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// hostFingerprint names the host and the code every number was measured
// on.
func hostFingerprint(root string) map[string]any {
	h := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h["goamd64"] = s.Value
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["vcs_modified"] = s.Value
			}
		}
	}
	if d, err := sourceDigest(root); err == nil {
		h["source_sha256"] = d
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories, so a result names the code it measured even where
// the checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
