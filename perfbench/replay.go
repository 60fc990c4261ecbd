package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/service"
	"sfccube/internal/weights"
)

// replayer re-runs a traced run's requests in this process, after each
// round's checks and while the server is idle. Every request goes through
// an in-process service.Service configured like partsrv's defaults, in the
// order the server received them, which times hits and misses by Meta.
// Each traced request that missed is then computed again through the
// public layer calls the service makes, one span per call, and the
// re-encoded response must equal the served bytes.
type replayer struct {
	svc      *service.Service
	metisReg *obs.Registry
	rec      *Recorder

	hitMs, missMs []float64
	// calls holds per-call span durations (ms) by layer name.
	calls        map[string][]float64
	graphAllocMB []float64
	encodeKB     []float64
	roots        []replayRoot
	metisCalls   int
}

func newReplayer(rec *Recorder) *replayer {
	return &replayer{
		// partsrv's default flags, spelled out.
		svc: service.NewService(service.Config{
			MaxNe: 384, CacheBytes: 64 << 20, CacheEntries: 4096, LargeDeadline: 30 * time.Second,
		}),
		metisReg: obs.NewRegistry(),
		rec:      rec,
		calls:    map[string][]float64{},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serviceCall runs s's request through the in-process service and checks
// that its payload is the body partsrv served. It reports whether the
// in-process call computed, and how long it took; the time is recorded only
// for a traced sample.
func (rp *replayer) serviceCall(reqID int, s *Sample) (bool, time.Duration, error) {
	r := s.Req
	req := service.Request{Ne: r.Ne, NParts: r.NParts, Method: r.Method, WeightsSpec: r.Weights}
	if r.HasSeed {
		seed := r.Seed
		req.Seed = &seed
	}
	t0 := time.Now()
	payload, meta, err := rp.svc.Partition(context.Background(), req)
	t1 := time.Now()
	if err != nil {
		return false, 0, fmt.Errorf("in-process service: %w", err)
	}
	if !bytes.Equal(payload, s.Body) {
		return false, 0, errors.New("in-process service payload differs from the served body")
	}
	if s.Traced {
		name := "service.miss"
		if meta.CacheHit {
			name = "service.hit"
			rp.hitMs = append(rp.hitMs, ms(t1.Sub(t0)))
		} else {
			rp.missMs = append(rp.missMs, ms(t1.Sub(t0)))
		}
		rp.rec.Add(name, -1, reqID, t0, t1)
	}
	return !meta.CacheHit, t1.Sub(t0), nil
}

// span times f as a child of parent and records its duration under name.
func (rp *replayer) span(name string, parent, reqID int, f func() error) error {
	id := rp.rec.Begin(name, parent, reqID)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	rp.rec.End(id)
	rp.calls[name] = append(rp.calls[name], ms(d))
	return err
}

// replayRoot pairs a miss's layered replay with its in-process service
// call.
type replayRoot struct {
	span    int
	service time.Duration
}

// parseAttempt splits a served attempt line "KWAY(seed 7): ..." into the
// strategy and seed.
func parseAttempt(a string) (string, int64, error) {
	strat, rest, ok := strings.Cut(a, "(seed ")
	num, _, ok2 := strings.Cut(rest, ")")
	seed, err := strconv.ParseInt(num, 10, 64)
	if !ok || !ok2 || err != nil {
		return "", 0, fmt.Errorf("unparsable attempt %q", a)
	}
	return strat, seed, nil
}

// layers recomputes one miss through the public layer calls, checks the
// re-encoded response against the served body and records the time the
// layer spans leave unexplained in the in-process service call.
func (rp *replayer) layers(reqID int, s *Sample, served *service.Response, serviceDur time.Duration) error {
	r := s.Req
	root := rp.rec.Begin("replay", -1, reqID)
	var (
		m   *mesh.Mesh
		g   *graph.Graph
		w   []int64
		p   *partition.Partition
		st  partition.Stats
		enc []byte
	)
	err := rp.span("mesh.new", root, reqID, func() (err error) {
		m, err = mesh.NewAuto(r.Ne)
		return err
	})
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rp.span("graph.from_mesh", root, reqID, func() (err error) {
		g, err = graph.FromMesh(m, graph.DefaultOptions())
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rp.graphAllocMB = append(rp.graphAllocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if r.Weights != "" {
		if err := rp.span("weights.generate", root, reqID, func() error {
			sp, err := weights.Parse(served.WeightsSpec)
			if err != nil {
				return err
			}
			w = sp.Generate(m)
			w32, err := weights.Int32(w)
			if err != nil {
				return err
			}
			return g.SetVertexWeights(w32)
		}); err != nil {
			return err
		}
	}
	// Abandoned chain links first (their work was done and wasted), then
	// the link that answered.
	for _, a := range served.Attempts {
		strat, seed, err := parseAttempt(a)
		if err != nil {
			return err
		}
		if _, err := rp.link(root, reqID, strat, seed, r, g, w); err != nil {
			return err
		}
	}
	if p, err = rp.link(root, reqID, served.Strategy, served.Seed, r, g, w); err != nil {
		return err
	}
	if err := rp.span("partition.stats", root, reqID, func() (err error) {
		st, err = partition.ComputeStatsWeighted(g, p, w)
		return err
	}); err != nil {
		return err
	}
	if err := rp.span("service.encode", root, reqID, func() (err error) {
		enc, err = json.Marshal(service.Response{
			Key: served.Key, Ne: served.Ne, NParts: served.NParts, Method: served.Method, Seed: served.Seed,
			WeightsSpec: served.WeightsSpec, Strategy: served.Strategy, Attempts: served.Attempts,
			Stats: st, Assignment: p.Assignment(),
		})
		return err
	}); err != nil {
		return err
	}
	rp.rec.End(root)
	rp.encodeKB = append(rp.encodeKB, float64(len(enc))/1024)
	if !bytes.Equal(enc, s.Body) {
		return errors.New("replayed assignment and stats differ from the served body")
	}
	rp.roots = append(rp.roots, replayRoot{span: root, service: serviceDur})
	return nil
}

// link runs one fallback-chain strategy through its layer's public call.
func (rp *replayer) link(root, reqID int, strat string, seed int64, r Request, g *graph.Graph, w []int64) (*partition.Partition, error) {
	var p *partition.Partition
	var err error
	switch strat {
	case "KWAY", "RB":
		method := metis.KWay
		if strat == "RB" {
			method = metis.RB
		}
		rp.metisCalls++
		err = rp.span("metis.partition", root, reqID, func() (err error) {
			p, err = metis.PartitionCtx(context.Background(), g, r.NParts, metis.Options{Method: method, Seed: seed, Obs: rp.metisReg})
			return err
		})
	case "SFC":
		err = rp.span("core.sfc", root, reqID, func() error {
			res, err := core.PartitionCubedSphere(core.Config{Ne: r.Ne, NProcs: r.NParts, Weights: w})
			if err == nil {
				p = res.Partition
			}
			return err
		})
	default:
		err = fmt.Errorf("replay: unexpected strategy %q", strat)
	}
	return p, err
}

// metrics returns the replay's per-layer metrics: means per call over the
// traced requests, and the metis pass counters per metis call.
func (rp *replayer) metrics() map[string]float64 {
	out := map[string]float64{
		"service.hit_ms":      mean(rp.hitMs),
		"service.miss_ms":     mean(rp.missMs),
		"mesh.new_ms":         mean(rp.calls["mesh.new"]),
		"graph.from_mesh_ms":  mean(rp.calls["graph.from_mesh"]),
		"graph.alloc_mb":      mean(rp.graphAllocMB),
		"weights.generate_ms": mean(rp.calls["weights.generate"]),
		"core.sfc_ms":         mean(rp.calls["core.sfc"]),
		"metis.partition_ms":  mean(rp.calls["metis.partition"]),
		"partition.stats_ms":  mean(rp.calls["partition.stats"]),
		"service.encode_ms":   mean(rp.calls["service.encode"]),
		"service.encode_kb":   mean(rp.encodeKB),
	}
	// A miss's unattributed time is its in-process service time minus what
	// the layer spans of its replay cover; the replay root's own glue (its
	// self time) is not service work.
	spans := rp.rec.Spans()
	self := SelfTimes(spans)
	var unattributed []float64
	for _, r := range rp.roots {
		covered := spans[r.span].Dur() - self[r.span]
		unattributed = append(unattributed, ms(r.service-covered))
	}
	out["service.unattributed_ms"] = mean(unattributed)
	snap := rp.metisReg.Snapshot()
	per := func(name string) float64 {
		if rp.metisCalls == 0 {
			return 0
		}
		return snap[name] / float64(rp.metisCalls)
	}
	out["metis.fm_passes"] = per("metis_fm_passes_total")
	out["metis.kway_passes"] = per("metis_kway_passes_total")
	out["metis.kway_moves"] = per("metis_kway_pass_moves_sum")
	out["metis.coarsen_levels"] = per("metis_coarsen_levels_sum")
	out["metis.rb_bisections"] = per("metis_rb_bisections_total")
	return out
}
