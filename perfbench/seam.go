package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/machine"
	"sfccube/internal/obs"
	"sfccube/internal/seam"
)

// The seam-k1536 problem: Williamson case 2 at the paper's K=1536 (Ne=16,
// np=8) on the 768-rank SFC partition of its Table 2, two elements per rank.
const (
	seamNe     = 16
	seamDegree = 7 // np = 8 points per element edge
	seamRanks  = 768
	seamGH0    = 2.94e4
	// Tolerances of the SEAM oracles. Williamson 2 is a steady state, so
	// the geopotential stays within seamMaxPhiL2 of its initial field over
	// the run; the DSS-projected scheme conserves mass to round-off.
	seamMaxPhiL2     = 1e-5
	seamMaxMassDrift = 1e-10
	// stateSlabsPerStep is the number of element-major float64 slab passes
	// one RK4 step makes as the kernels are written: stage 0 reads the
	// state and six metric slabs and writes accumulator and tendency (15),
	// stages 1-3 also read the tendency and write the stage state (18
	// each), and the epilogue reads tendency and accumulator and writes the
	// state (9). It turns slab sizes into computed bytes moved.
	stateSlabsPerStep = 15 + 3*18 + 9
)

const (
	// setupReps is how many set-ups a run times; setup_s is their median
	// (an odd count, so the median is one of them).
	setupReps = 9
	// serialShare: the Workers = 1 phase takes 1/serialShare of the run,
	// the timed Workers = nproc phase the rest.
	serialShare = 5
)

// newSEAM is the workload's set-up: grid, initial state, SFC partition and
// runner.
func newSEAM() (*seam.ShallowWater, *seam.Runner, *core.Result, float64, error) {
	g, err := seam.NewGrid(seamNe, seamDegree, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	sw.SetState(seam.Williamson2(g.Radius, g.Omega, williamsonU0(g.Radius), seamGH0))
	dt := sw.MaxStableDt(0.4)
	res, err := core.PartitionCubedSphere(core.Config{Ne: seamNe, NProcs: seamRanks})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	r, err := seam.NewRunner(sw, res.Partition.Assignment(), seamRanks)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return sw, r, res, dt, nil
}

// williamsonU0 is the test case's peak wind: one revolution in 12 days.
func williamsonU0(radius float64) float64 { return 2 * math.Pi * radius / (12 * 86400) }

// stateCopy returns copies of the prognostic slabs.
func stateCopy(sw *seam.ShallowWater) [3][]float64 {
	v1, v2, phi := sw.StateSlabs()
	return [3][]float64{append([]float64(nil), v1...), append([]float64(nil), v2...), append([]float64(nil), phi...)}
}

func stateRestore(sw *seam.ShallowWater, s [3][]float64) {
	v1, v2, phi := sw.StateSlabs()
	copy(v1, s[0])
	copy(v2, s[1])
	copy(phi, s[2])
}

func stateEqual(sw *seam.ShallowWater, s [3][]float64) bool {
	v1, v2, phi := sw.StateSlabs()
	for i, cur := range [][]float64{v1, v2, phi} {
		for j, x := range cur {
			if math.Float64bits(x) != math.Float64bits(s[i][j]) {
				return false
			}
		}
	}
	return true
}

// timedRun times one Runner.Run(1, dt).
func timedRun(r *seam.Runner, dt float64) time.Duration {
	t0 := time.Now()
	r.Run(1, dt)
	return time.Since(t0)
}

// runSEAM drives seam-k1536: steps at Workers = 1, then the same problem
// from the same initial state at Workers = nproc, with the bitwise,
// mass and Williamson-2 oracles checked between steps, outside the timed
// step intervals.
func runSEAM(cfg runConfig) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, detail: map[string]any{}}
	nw := runtime.NumCPU()
	// A set-up is timed after a collection, so each starts from the same
	// heap. The first one serves the run; the later ones are spread over
	// the parallel phase, to meet the same host conditions as its steps,
	// and dropped.
	setUp := func() (*seam.ShallowWater, *seam.Runner, *core.Result, float64, float64, error) {
		runtime.GC()
		t0 := time.Now()
		sw, r, res, dt, err := newSEAM()
		return sw, r, res, dt, time.Since(t0).Seconds(), err
	}
	sw, r, res, dt, setup0, err := setUp()
	if err != nil {
		return nil, err
	}
	setups := []float64{setup0}
	var setupAlloc uint64 // bytes the set-ups during the timed phase allocated
	extraSetUp := func() error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, _, _, _, d, err := setUp()
		runtime.ReadMemStats(&m1)
		setupAlloc += m1.TotalAlloc - m0.TotalAlloc
		setups = append(setups, d)
		return err
	}
	runtime.GC()
	_, phiRef := seam.Williamson2(sw.G.Radius, sw.G.Omega, williamsonU0(sw.G.Radius), seamGH0)
	s0 := stateCopy(sw)
	mass0 := sw.TotalMass()
	// Warm-up at both worker counts, then back to the initial state.
	for _, w := range []int{nw, 1} {
		r.Workers = w
		r.Run(3, dt)
	}
	stateRestore(sw, s0)

	// Serial phase: the plain single-threaded baseline.
	r.Workers = 1
	var serial []float64
	for t := time.Duration(0); t < cfg.seconds/serialShare || len(serial) < minBeyond; {
		d := timedRun(r, dt)
		t += d
		serial = append(serial, ms(d))
	}
	n1 := len(serial)
	ref := stateCopy(sw)
	stateRestore(sw, s0)

	// Parallel phase from the same initial state.
	r.Workers = nw
	need := max(n1, minSamplesFor(0.9))
	steps := make([]float64, 0, 4*need)
	var (
		total              time.Duration
		bitwise            = false
		reg                *obs.Registry
		waitNs             *obs.Histogram
		busy, wait, unattr []float64
		instrLat, plainLat []float64
		mem0, mem1         runtime.MemStats
	)
	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder(time.Now())
		reg = obs.NewRegistry()
		r.Instrument(reg, nil)
		waitNs = reg.Histogram("seam_epoch_wait_ns")
		r.Instrument(nil, nil)
	}
	flops0 := sw.Flops
	runtime.ReadMemStats(&mem0)
	parallel := cfg.seconds - cfg.seconds/serialShare
	for i := 0; total < parallel || len(steps) < need; i++ {
		// A traced run instruments every other step, so instrumented and
		// plain steps share the same moments; their difference is the
		// tracing overhead.
		instr := cfg.trace && i%2 == 1
		if cfg.trace {
			if instr {
				r.Instrument(reg, nil)
			} else {
				r.Instrument(nil, nil)
			}
		}
		w0 := waitNs.Sum()
		t0 := time.Now()
		d := timedRun(r, dt)
		total += d
		steps = append(steps, ms(d))
		if cfg.trace {
			name := "seam.run_step"
			if instr {
				name = "seam.run_step_instrumented"
			}
			rec.Add(name, -1, i, t0, t0.Add(d))
			if instr {
				var b int64
				for _, x := range r.Snapshot().BusyNs {
					b += x
				}
				w := waitNs.Sum() - w0
				busy = append(busy, float64(b)/1e6)
				wait = append(wait, float64(w)/1e6)
				unattr = append(unattr, (float64(nw)*float64(d)-float64(b)-float64(w))/1e6)
				instrLat = append(instrLat, ms(d))
			} else {
				plainLat = append(plainLat, ms(d))
			}
		}
		if len(steps) == n1 {
			bitwise = stateEqual(sw, ref)
		}
		if len(setups) < setupReps && total >= time.Duration(len(setups))*parallel/(setupReps-1) {
			if err := extraSetUp(); err != nil {
				return nil, err
			}
		}
	}
	for len(setups) < setupReps {
		if err := extraSetUp(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&mem1)
	flopsPerStep := float64(sw.Flops-flops0) / float64(len(steps))
	r.Instrument(nil, nil)

	mass1 := sw.TotalMass()
	drift := math.Abs(mass1-mass0) / math.Abs(mass0)
	l2 := sw.PhiL2Error(phiRef)
	// A failed end-state oracle fails every step that led to that state.
	if !bitwise {
		out.fail(n1, "seam", fmt.Errorf("state after %d steps at Workers=%d is not bitwise equal to Workers=1", n1, nw))
	}
	if !(drift <= seamMaxMassDrift) || !(l2 <= seamMaxPhiL2) {
		out.fail(len(steps), "seam", fmt.Errorf("Williamson 2: mass drift %.3g (max %g), Phi L2 error %.3g (max %g)",
			drift, seamMaxMassDrift, l2, seamMaxPhiL2))
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	out.attempted = n1 + len(steps)
	tail, _ := tailPercentile(len(steps))
	out.e2e = map[string]float64{
		"ops_per_s":       float64(len(steps)) / total.Seconds(),
		"latency_p50_ms":  percentile(steps, 0.5),
		"latency_p90_ms":  percentile(steps, 0.9),
		"ok_frac":         float64(out.attempted-out.failed) / float64(out.attempted),
		"alloc_mb_per_op": float64(mem1.TotalAlloc-mem0.TotalAlloc-setupAlloc) / (1 << 20) / float64(len(steps)),
		"peak_rss_mb":     rss,
		"setup_s":         percentile(setups, 0.5),
	}
	serialP50 := percentile(serial, 0.5)
	out.detail["workers"] = nw
	out.detail["steps"] = len(steps)
	out.detail["serial_steps"] = n1
	out.detail["serial_step_ms_p50"] = serialP50
	out.detail["tail_rule_percentile"] = tail
	out.detail["mass_drift"] = drift
	out.detail["phi_l2_error"] = l2
	out.detail["dt_s"] = dt
	if !cfg.trace {
		return out, nil
	}

	g := sw.G
	npts := g.PointsPerElem()
	k := g.NumElems()
	// Each layer call repeats until it has run for loopBudget, at least
	// minReps times, one span per call.
	const loopBudget, minReps = 700 * time.Millisecond, 10
	loop := func(name string, f func()) []float64 {
		var ds []float64
		for t := time.Duration(0); t < loopBudget || len(ds) < minReps; {
			id := rec.Begin(name, -1, len(ds))
			t0 := time.Now()
			f()
			d := time.Since(t0)
			rec.End(id)
			t += d
			ds = append(ds, ms(d))
		}
		return ds
	}
	_, _, phi := sw.StateSlabs()
	dua, dub := make([]float64, npts), make([]float64, npts)
	diff := loop("seam.diff_alpha_beta_all", func() {
		for e := 0; e < k; e++ {
			g.DiffAlphaBeta(phi[e*npts:(e+1)*npts], dua, dub)
		}
	})
	rhs := loop("seam.rhs", sw.RHS)
	dssPhi, dssPhiV := g.FieldSlab()
	dssV1, dssV1V := g.FieldSlab()
	dssV2, dssV2V := g.FieldSlab()
	v1, v2, _ := sw.StateSlabs()
	copy(dssPhi, phi)
	copy(dssV1, v1)
	copy(dssV2, v2)
	dss := loop("seam.dss", func() {
		sw.Dss.Apply(dssPhiV)
		sw.Dss.ApplyVector(dssV1V, dssV2V)
	})
	f0 := sw.Flops
	seq := loop("seam.seq_step", func() { sw.Step(dt) })
	seqFlops := float64(sw.Flops-f0) / float64(len(seq))
	rep, err := machine.SimulateStep(res.Mesh, res.Partition, machine.DefaultWorkload(), machine.NCARP690(), nil)
	if err != nil {
		return nil, err
	}
	var dssBytes int64
	for _, b := range r.BytesPerStep() {
		dssBytes += b
	}
	seqMs := mean(seq)
	out.layer = map[string]float64{
		"seam.diff_ns_per_elem":        mean(diff) * 1e6 / float64(k),
		"seam.rhs_ms":                  mean(rhs),
		"seam.dss_ms":                  mean(dss),
		"seam.seq_step_ms":             seqMs,
		"seam.serial_step_ms":          serialP50,
		"seam.busy_ms":                 mean(busy),
		"seam.epoch_wait_ms":           mean(wait),
		"seam.unattributed_ms":         mean(unattr),
		"seam.flops_per_step":          flopsPerStep,
		"seam.bytes_per_step_computed": float64(stateSlabsPerStep * k * npts * 8),
		"seam.dss_bytes_per_step":      float64(dssBytes),
		"seam.gflops_serial":           seqFlops / (seqMs / 1e3) / 1e9,
		"machine.model_step_ms":        rep.StepTime * 1e3,
		"trace.overhead_pct":           100 * (percentile(instrLat, 0.5)/percentile(plainLat, 0.5) - 1),
	}
	out.spans = rec.Spans()
	return out, nil
}
