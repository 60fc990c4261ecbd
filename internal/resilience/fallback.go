package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/par"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// Strategy names one link of the partition fallback chain.
type Strategy string

const (
	StrategyKWay       Strategy = "KWAY"
	StrategyRB         Strategy = "RB"
	StrategySFC        Strategy = "SFC"
	StrategySerpentine Strategy = "SERPENTINE"
)

// DefaultChain is the quality-first fallback order: the low-edgecut K-way
// partitioner, then recursive bisection (better balance, no balance-
// violation failure mode), then the O(K) SFC split (immune to deadline
// overrun but restricted to Ne = 2^n 3^m), then the serpentine ordering,
// which accepts any Ne and cannot fail.
var DefaultChain = []Strategy{StrategyKWay, StrategyRB, StrategySFC, StrategySerpentine}

// RepartitionChain is the fallback order for in-flight re-partitioning
// (e.g. after a rank death): cheap and predictable first, exactly the
// regime SFC partitioning was designed for.
var RepartitionChain = []Strategy{StrategySFC, StrategySerpentine}

// BalanceError reports a partition rejected by the acceptance check: its
// element load balance exceeded the spec's tolerance, or it left parts
// empty.
type BalanceError struct {
	Strategy   Strategy
	LB         float64
	Limit      float64
	EmptyParts int
}

func (e *BalanceError) Error() string {
	if e.EmptyParts > 0 {
		return fmt.Sprintf("resilience: %s partition left %d parts empty", e.Strategy, e.EmptyParts)
	}
	return fmt.Sprintf("resilience: %s partition LB(nelemd)=%.4f exceeds limit %.4f", e.Strategy, e.LB, e.Limit)
}

// UnsupportedNeError reports a face size the Hilbert–Peano construction
// cannot handle (Ne not of the form 2^n 3^m). It unwraps to the sfc error.
type UnsupportedNeError struct {
	Ne    int
	Cause error
}

func (e *UnsupportedNeError) Error() string {
	return fmt.Sprintf("resilience: SFC cannot partition Ne=%d: %v", e.Ne, e.Cause)
}

func (e *UnsupportedNeError) Unwrap() error { return e.Cause }

// Attempt records one abandoned link of the fallback chain.
type Attempt struct {
	Strategy Strategy
	Seed     int64
	Err      error
}

// ExhaustedError reports a chain whose every link failed.
type ExhaustedError struct {
	Attempts []Attempt
}

func (e *ExhaustedError) Error() string {
	parts := make([]string, len(e.Attempts))
	for i, a := range e.Attempts {
		parts[i] = fmt.Sprintf("%s(seed %d): %v", a.Strategy, a.Seed, a.Err)
	}
	return "resilience: partition fallback chain exhausted: " + strings.Join(parts, "; ")
}

// Defaults applied by NewFallbackSpec — and, for backwards compatibility,
// by PartitionWithFallback to the corresponding zero-valued fields of specs
// built as plain struct literals (see FallbackSpec).
const (
	// DefaultMaxLB is the accepted LB(nelemd) when the caller expresses no
	// preference.
	DefaultMaxLB = 0.10
	// DefaultSeedRetries is the number of reseeded retries each METIS
	// strategy gets after a balance violation.
	DefaultSeedRetries = 2
	// DefaultSeed seeds the METIS-style strategies.
	DefaultSeed int64 = 1
)

// FallbackSpec configures PartitionWithFallback.
//
// Build specs with NewFallbackSpec: it fills Seed, MaxLB and SeedRetries with
// the Default* constants. Every field is taken at face value, so
// SeedRetries = 0 (no reseeded retries), MaxLB = 0 (strict perfect-balance
// gate) and Seed = 0 are all expressible.
type FallbackSpec struct {
	Ne     int
	NProcs int
	// Seed seeds the METIS-style strategies; reseeded retries derive fresh
	// seeds from it.
	Seed int64
	// Chain overrides DefaultChain.
	Chain []Strategy
	// MaxLB is the accepted LB(nelemd) (equation (1) of the paper; 0 is
	// perfect balance). Negative means "accept anything"; zero is the
	// strict perfect-balance gate.
	MaxLB float64
	// SeedRetries is how many reseeded retries each METIS strategy gets
	// after a balance violation before the chain moves on. Negative is
	// clamped to zero.
	SeedRetries int
	// Backoff is the base wait between reseeded retries (honouring ctx).
	// The actual waits carry decorrelated jitter drawn from a stream
	// seeded by Seed — uniform in [Backoff, 3*prev] capped at 10*Backoff
	// — so a fleet of synchronized clients spreads its retries out while
	// any single spec's sleep sequence stays replayable. The zero value
	// means no wait, which is what tests use.
	Backoff time.Duration
	// Graph and Mesh are optional pre-built inputs for the METIS
	// strategies; when nil they are built from Ne on first use.
	Graph *graph.Graph
	Mesh  *mesh.Mesh
	// Weights optionally assigns a computation weight to every element
	// (indexed by mesh.ElemID, length 6*Ne*Ne). Every chain link then
	// balances total weight instead of element counts: the SFC strategies
	// cut the curve into near-equal-weight segments, the METIS strategies
	// receive the weights as graph vertex weights (overwriting any weights
	// already on Graph, so the chain and the acceptance check can never
	// disagree about the load model), and checkBalance gates on the
	// weighted balance. Nil means uniform cost. Negative or all-zero
	// weights fail the chain with the partition layer's typed errors.
	Weights []int64
}

// NewFallbackSpec returns a spec for splitting the Ne cubed-sphere
// mesh into nprocs parts, with Seed, MaxLB and SeedRetries set to the
// Default* constants. Overwrite any field afterwards and it is honoured
// exactly as written:
//
//	spec := resilience.NewFallbackSpec(ne, nprocs)
//	spec.SeedRetries = 0 // no reseeded retries
//	spec.MaxLB = 0       // accept only perfect balance
func NewFallbackSpec(ne, nprocs int) FallbackSpec {
	return FallbackSpec{
		Ne:          ne,
		NProcs:      nprocs,
		Seed:        DefaultSeed,
		MaxLB:       DefaultMaxLB,
		SeedRetries: DefaultSeedRetries,
	}
}

// FallbackResult is a successful chain outcome: the partition, the strategy
// and seed that produced it, and every abandoned attempt before it (in
// order), each with its typed error.
type FallbackResult struct {
	Partition *partition.Partition
	Strategy  Strategy
	Seed      int64
	Attempts  []Attempt
}

func (r *FallbackResult) String() string {
	if len(r.Attempts) == 0 {
		return string(r.Strategy)
	}
	parts := make([]string, len(r.Attempts))
	for i, a := range r.Attempts {
		parts[i] = string(a.Strategy)
	}
	return strings.Join(parts, "→") + "→" + string(r.Strategy)
}

// PartitionWithFallback walks the fallback chain until a strategy yields a
// partition passing the balance acceptance check:
//
//   - A METIS strategy whose result violates the balance tolerance is
//     retried with a reseeded RNG (and optional backoff) up to SeedRetries
//     times before the chain moves on — a different seed often escapes the
//     bad local optimum (KWAY trades balance for edgecut by design).
//   - A METIS strategy cancelled by ctx (deadline overrun) is recorded and
//     the chain falls through to the SFC strategies, which are O(K) and
//     deliberately ignore the expired deadline: a partition is always
//     better than none.
//   - StrategySFC fails on unsupported Ne with *UnsupportedNeError, falling
//     through to StrategySerpentine, which accepts any Ne.
//
// Every abandoned attempt appears in the result's Attempts with a typed
// error; if every link fails the returned error is *ExhaustedError.
func PartitionWithFallback(ctx context.Context, spec FallbackSpec) (*FallbackResult, error) {
	k := 6 * spec.Ne * spec.Ne
	if spec.Ne < 1 || spec.NProcs < 1 || spec.NProcs > k {
		return nil, fmt.Errorf("resilience: cannot split Ne=%d (%d elements) into %d parts", spec.Ne, k, spec.NProcs)
	}
	if spec.Weights != nil {
		// Fail fast with the partition layer's typed errors before any
		// strategy runs: a malformed weight vector dooms every link alike.
		if len(spec.Weights) != k {
			return nil, fmt.Errorf("resilience: %d weights for %d elements", len(spec.Weights), k)
		}
		if err := partition.ValidateWeights(spec.Weights); err != nil {
			return nil, err
		}
	}
	chain := spec.Chain
	if chain == nil {
		chain = DefaultChain
	}
	seed, retries := spec.Seed, max(spec.SeedRetries, 0)
	// One jitter stream per chain walk: every reseeded retry, whichever
	// strategy it belongs to, consumes the next draw, so the full sleep
	// sequence is a pure function of (Seed, Backoff).
	backoff := NewJitter(uint64(seed), spec.Backoff, 0)

	var attempts []Attempt
	accept := func(strat Strategy, s int64, p *partition.Partition, err error) *FallbackResult {
		if err == nil {
			err = checkBalance(strat, p, spec.MaxLB, spec.Weights)
		}
		if err == nil {
			return &FallbackResult{Partition: p, Strategy: strat, Seed: s, Attempts: attempts}
		}
		attempts = append(attempts, Attempt{Strategy: strat, Seed: s, Err: err})
		return nil
	}

	for _, strat := range chain {
		switch strat {
		case StrategyKWay, StrategyRB:
			g, err := spec.metisGraph()
			if err != nil {
				attempts = append(attempts, Attempt{Strategy: strat, Seed: seed, Err: err})
				continue
			}
			method := metis.KWay
			if strat == StrategyRB {
				method = metis.RB
			}
			s := seed
			for try := 0; try <= retries; try++ {
				if try > 0 {
					// Reseeded retry with jittered backoff: a fresh RNG stream,
					// and a decorrelated breather so a transiently loaded
					// machine is not hammered by lockstepped retries.
					s = int64(par.SplitMix64(uint64(s)) | 1)
					if !sleepBetweenRetries(ctx, backoff.Next()) {
						break
					}
				}
				p, err := metis.PartitionCtx(ctx, g, spec.NProcs, metis.Options{Method: method, Seed: s})
				if res := accept(strat, s, p, err); res != nil {
					return res, nil
				}
				if ctx.Err() != nil {
					break // deadline overran: no point reseeding, fall through
				}
				var be *BalanceError
				if !errors.As(attempts[len(attempts)-1].Err, &be) {
					break // hard failure; reseeding will not change it
				}
			}
		case StrategySFC:
			res, err := core.PartitionCubedSphere(core.Config{Ne: spec.Ne, NProcs: spec.NProcs, Weights: spec.Weights})
			if err != nil {
				if _, _, ferr := sfc.Factor(spec.Ne); ferr != nil {
					err = &UnsupportedNeError{Ne: spec.Ne, Cause: ferr}
				}
				attempts = append(attempts, Attempt{Strategy: strat, Seed: seed, Err: err})
				continue
			}
			if r := accept(strat, seed, res.Partition, nil); r != nil {
				return r, nil
			}
		case StrategySerpentine:
			p, err := serpentinePartition(spec)
			if r := accept(strat, seed, p, err); r != nil {
				return r, nil
			}
		default:
			attempts = append(attempts, Attempt{Strategy: strat, Seed: seed,
				Err: fmt.Errorf("resilience: unknown strategy %q", strat)})
		}
	}
	return nil, &ExhaustedError{Attempts: attempts}
}

// checkBalance gates a candidate partition on emptiness and load balance.
// With an element weight vector the balance is equation (1) over per-part
// weight totals — the quantity the weighted strategies actually optimise —
// otherwise over element counts.
func checkBalance(strat Strategy, p *partition.Partition, maxLB float64, weights []int64) error {
	counts := p.Counts()
	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	if empty > 0 {
		return &BalanceError{Strategy: strat, EmptyParts: empty}
	}
	if maxLB < 0 {
		return nil
	}
	var lb float64
	if weights != nil {
		partWeights := make([]int64, p.NumParts())
		for v := 0; v < p.NumVertices(); v++ {
			partWeights[p.Part(v)] += weights[v]
		}
		lb = partition.LoadBalanceInt64(partWeights)
	} else {
		lb = partition.LoadBalanceInts(counts)
	}
	if lb > maxLB {
		return &BalanceError{Strategy: strat, LB: lb, Limit: maxLB}
	}
	return nil
}

// metisGraph lazily builds (and caches) the dual graph for the METIS
// strategies. A weighted spec installs its weights as the graph's vertex
// weights — including on a caller-provided Graph — so the multilevel
// partitioners balance the same load model the curve strategies split on.
func (spec *FallbackSpec) metisGraph() (*graph.Graph, error) {
	g := spec.Graph
	if g == nil {
		m := spec.Mesh
		if m == nil {
			var err error
			m, err = mesh.New(spec.Ne)
			if err != nil {
				return nil, err
			}
			spec.Mesh = m
		}
		var err error
		g, err = graph.FromMesh(m, graph.DefaultOptions())
		if err != nil {
			return nil, err
		}
		spec.Graph = g
	}
	if spec.Weights != nil {
		w32, err := weights.Int32(spec.Weights)
		if err != nil {
			return nil, err
		}
		if err := g.SetVertexWeights(w32); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func serpentinePartition(spec FallbackSpec) (*partition.Partition, error) {
	m := spec.Mesh
	if m == nil {
		var err error
		m, err = mesh.New(spec.Ne)
		if err != nil {
			return nil, err
		}
	}
	cc, err := sfc.NewCubeCurveFromBase(m, sfc.GenerateSerpentine(spec.Ne), "serpentine")
	if err != nil {
		return nil, err
	}
	return core.PartitionCurve(cc, spec.NProcs, spec.Weights)
}

// sleepBetweenRetries is sleepCtx, indirected so the backoff-determinism
// test can record the jittered sleep sequence without actually sleeping.
var sleepBetweenRetries = sleepCtx

// sleepCtx sleeps for d unless ctx expires first; it reports whether the
// full wait completed. d <= 0 returns true immediately without consulting
// the context (an expired deadline must still fall through the chain).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
