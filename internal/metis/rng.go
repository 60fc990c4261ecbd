package metis

import "sfccube/internal/par"

// prng is the partitioner's deterministic pseudo-random generator: a
// splitmix64 stream. It replaces math/rand because the recursive-bisection
// tree creates one generator per subtree — O(nparts) of them per partition —
// and math/rand's lagged-Fibonacci source pays a ~600-word initialisation
// per New, which profiled at >10% of a whole K-way partition. Seeding a
// splitmix64 stream is a single register write, and the generator state is
// one word, so per-subtree streams are effectively free.
//
// Determinism contract: the sequence is a pure function of the seed, with no
// global state, so partitions are byte-identical across runs, platforms and
// GOMAXPROCS settings (each subtree derives its own seed via childSeed).
type prng struct{ s uint64 }

func newPRNG(seed uint64) *prng { return &prng{s: seed} }

// next returns the next 64 random bits: the SplitMix64 step on the state,
// which then advances by the same golden-ratio increment the step adds.
func (r *prng) next() uint64 {
	z := par.SplitMix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return z
}

// Intn returns a value in [0, n) for 0 < n <= 1<<31, using Lemire's
// multiply-shift reduction (the bias for these n is < 2^-32, and only
// determinism — not statistical perfection — matters here).
func (r *prng) Intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// Shuffle performs a Fisher-Yates shuffle of n elements through swap.
func (r *prng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
