// Package par provides the small deterministic helpers the partitioning and
// resilience paths share: fan-out over index ranges, and the SplitMix64 mix
// behind every seeded random stream. Both helpers only ever run
// callbacks over disjoint index ranges, so callers that write disjoint
// outputs are race-free by construction, and — as long as the *content*
// written for an index does not depend on which goroutine computes it —
// byte-identical at any GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForChunks partitions [0, n) into at most GOMAXPROCS contiguous chunks of
// at least minChunk indices and runs fn(lo, hi) for each, concurrently. It
// returns after every chunk completed. With a single chunk (small n or
// GOMAXPROCS=1) fn runs on the calling goroutine with no synchronisation.
//
// Chunk boundaries depend on GOMAXPROCS, so ForChunks is only for loops
// whose per-index results are independent of the chunking (gather/scatter
// fills, per-row CSR construction). Work whose output depends on the block
// decomposition must use ForBlocks with a fixed block size instead.
func ForChunks(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if maxChunks := (n + minChunk - 1) / minChunk; workers > maxChunks {
		workers = maxChunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForBlocks runs fn(b) for every block index b in [0, nblocks) on up to
// GOMAXPROCS goroutines, handing blocks out dynamically. The assignment of
// blocks to goroutines is scheduling-dependent; determinism is the caller's
// contract: fn(b) must compute a result that depends only on b (e.g. an RNG
// stream seeded from b) and write only block-b state.
func ForBlocks(nblocks int, fn func(b int)) {
	if nblocks <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > nblocks {
		workers = nblocks
	}
	if workers <= 1 {
		for b := 0; b < nblocks; b++ {
			fn(b)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= nblocks {
					return
				}
				fn(b)
			}
		}()
	}
	wg.Wait()
}

// SplitMix64 is the SplitMix64 step (Steele, Lea & Flood 2014): it adds the
// golden-ratio increment 0x9e3779b97f4a7c15 to x and returns the mixed
// result. Iterating it over a state that advances by the same increment
// yields the SplitMix64 stream; one call on a seed derives an independent
// seed. Every seeded stream in the repository (metis subtrees, fault and
// chaos plans, retry jitter) goes through it, so each is a pure function of
// its seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
