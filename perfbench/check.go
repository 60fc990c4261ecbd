package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"

	"sfccube/internal/check"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/resilience"
	"sfccube/internal/service"
	"sfccube/internal/weights"
)

// parseResponse decodes a partsrv JSON response, rejecting unknown fields
// and trailing data.
func parseResponse(body []byte) (*service.Response, error) {
	var resp service.Response
	if err := strictUnmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON object")
	}
	return nil
}

// checker verifies partsrv responses against independent oracles. It
// caches the unit-weight dual graph of each Ne and the weight vector of
// each (Ne, spec); both are pure functions of their keys.
type checker struct {
	mu      sync.Mutex
	graphs  map[int]*graph.Graph
	weights map[string][]int64
	digests map[string][32]byte // key -> SHA-256 of the first body served
}

func newChecker() *checker {
	return &checker{graphs: map[int]*graph.Graph{}, weights: map[string][]int64{}, digests: map[string][32]byte{}}
}

func (c *checker) graphFor(ne int) (*graph.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.graphs[ne]; ok {
		return g, nil
	}
	m, err := mesh.NewAuto(ne)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		return nil, err
	}
	c.graphs[ne] = g
	return g, nil
}

func (c *checker) weightsFor(ne int, spec string) ([]int64, error) {
	key := fmt.Sprintf("%d/%s", ne, spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.weights[key]; ok {
		return w, nil
	}
	sp, err := weights.Parse(spec)
	if err != nil {
		return nil, err
	}
	m, err := mesh.NewAuto(ne)
	if err != nil {
		return nil, err
	}
	w := sp.Generate(m)
	c.weights[key] = w
	return w, nil
}

// canonicalWeights is the weights_spec echo a response must carry.
func canonicalWeights(spec string) (string, error) {
	sp, err := weights.Parse(spec)
	if err != nil || sp.IsUniform() {
		return "", err
	}
	return sp.String(), nil
}

// firstLink is the chain link that must answer a request whose chain
// abandoned nothing.
func firstLink(r Request) resilience.Strategy {
	switch {
	case r.Method == "sfc", r.Method == "auto" && r.Ne >= 256:
		return resilience.StrategySFC
	case r.Method == "rb":
		return resilience.StrategyRB
	default:
		return resilience.StrategyKWay
	}
}

// checkSample verifies one response. A repeated key must return the bytes
// served the first time; a new key is parsed and verified in full.
func (c *checker) checkSample(s *Sample) (*service.Response, error) {
	switch {
	case s.Err != nil:
		return nil, s.Err
	case s.Status != http.StatusOK:
		return nil, fmt.Errorf("status %d: %.200s", s.Status, s.Body)
	case s.Degraded || s.Breaker:
		return nil, fmt.Errorf("degraded=%v breaker=%v", s.Degraded, s.Breaker)
	}
	sum := sha256.Sum256(s.Body)
	key := s.Req.Key()
	c.mu.Lock()
	first, seen := c.digests[key]
	c.mu.Unlock()
	if seen {
		if first != sum {
			return nil, errors.New("repeated key returned different bytes")
		}
		return nil, nil
	}
	resp, err := c.verify(s.Req, s.Body)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.digests[key]; ok && prev != sum {
		c.mu.Unlock()
		return nil, errors.New("repeated key returned different bytes")
	}
	c.digests[key] = sum
	c.mu.Unlock()
	return resp, nil
}

// verify checks a response body for request r: the echo, the strategy, the
// partition's validity and balance, and every statistic against
// check.ComputeMetrics, with weighted balance recomputed from
// weights.Generate.
func (c *checker) verify(r Request, body []byte) (*service.Response, error) {
	resp, err := parseResponse(body)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	ws, err := canonicalWeights(r.Weights)
	if err != nil {
		return nil, err
	}
	if resp.Ne != r.Ne || resp.NParts != r.NParts || resp.Method != r.Method || resp.WeightsSpec != ws {
		return nil, fmt.Errorf("echo mismatch: got ne=%d nparts=%d method=%s weights=%q", resp.Ne, resp.NParts, resp.Method, resp.WeightsSpec)
	}
	if resp.Degraded || len(resp.BreakerSkipped) > 0 {
		return nil, fmt.Errorf("degraded=%v breaker_skipped=%v", resp.Degraded, resp.BreakerSkipped)
	}
	if want := firstLink(r); len(resp.Attempts) == 0 && resp.Strategy != string(want) {
		return nil, fmt.Errorf("strategy %s, want %s", resp.Strategy, want)
	}
	g, err := c.graphFor(r.Ne)
	if err != nil {
		return nil, err
	}
	p, err := partition.FromAssignment(resp.Assignment, resp.NParts)
	if err != nil {
		return nil, err
	}
	if err := check.ValidatePartition(g, p); err != nil {
		return nil, err
	}
	m, err := check.ComputeMetrics(g, p)
	if err != nil {
		return nil, err
	}
	st := resp.Stats
	empty := 0
	for _, n := range m.Counts {
		if n == 0 {
			empty++
		}
	}
	switch {
	case st.NParts != m.NParts || !slices.Equal(st.Nelemd, m.Counts):
		return nil, errors.New("stats: nelemd differs from the oracle")
	case st.MaxNelemd != slices.Max(m.Counts) || st.MinNelemd != slices.Min(m.Counts) || st.EmptyParts != empty:
		return nil, errors.New("stats: max/min/empty parts differ from the oracle")
	case st.EdgeCut != m.EdgeCut || st.EdgeCutUnweighted != m.EdgeCutUnweighted:
		return nil, fmt.Errorf("stats: edgecut %d/%d, oracle %d/%d", st.EdgeCut, st.EdgeCutUnweighted, m.EdgeCut, m.EdgeCutUnweighted)
	case !slices.Equal(st.Spcv, m.Spcv) || !approxEqual(st.LBSpcv, m.LBSpcv):
		return nil, errors.New("stats: spcv differs from the oracle")
	case st.TotalCommVolume != m.TotalCommVolume || st.CutVertices != m.CutVertices:
		return nil, errors.New("stats: total comm volume or cut vertices differ from the oracle")
	}
	lb := m.LBNelemd
	if r.Weights == "" {
		if !approxEqual(st.LBNelemd, lb) || !approxEqual(st.LBWeighted, lb) || st.PartWeights != nil {
			return nil, errors.New("stats: unweighted load balance differs from the oracle")
		}
	} else {
		w, err := c.weightsFor(r.Ne, r.Weights)
		if err != nil {
			return nil, err
		}
		pw := make([]int64, p.NumParts())
		for v, x := range w {
			pw[p.Part(v)] += x
		}
		lb = partition.LoadBalanceInt64(pw)
		if !slices.Equal(st.PartWeights, pw) || !approxEqual(st.LBNelemd, lb) || !approxEqual(st.LBWeighted, lb) {
			return nil, errors.New("stats: weighted load balance differs from weights.Generate")
		}
	}
	if empty > 0 || lb > resilience.DefaultMaxLB {
		return nil, fmt.Errorf("accepted partition has LB %.4f and %d empty parts", lb, empty)
	}
	return resp, nil
}

func approxEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
