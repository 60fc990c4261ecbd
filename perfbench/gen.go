package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
)

// Request is one partition request as the benchmark sends it.
type Request struct {
	Ne, NParts int
	Method     string
	Seed       int64 // sent only when HasSeed
	HasSeed    bool
	Weights    string // weights_spec; "" sends none (uniform cost)
}

// Query returns the request's /v1/partition query string.
func (r Request) Query() string {
	q := url.Values{}
	q.Set("ne", strconv.Itoa(r.Ne))
	q.Set("nparts", strconv.Itoa(r.NParts))
	q.Set("method", r.Method)
	if r.HasSeed {
		q.Set("seed", strconv.FormatInt(r.Seed, 10))
	}
	if r.Weights != "" {
		q.Set("weights_spec", r.Weights)
	}
	return q.Encode()
}

// Key identifies the request's content; two requests with one Key must get
// byte-identical answers.
func (r Request) Key() string { return r.Query() }

// Item is one generated request and whether it repeats an earlier key of
// the same stream.
type Item struct {
	Req    Request
	Repeat bool
}

// Stream yields one client's requests in order. The sequence is a pure
// function of (seed, client).
type Stream interface{ Next() Item }

// newRand returns the generator PRNG of one client stream.
func newRand(seed int64, client, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), client<<32|salt))
}

// block deals the values of a fixed multiset in seeded shuffled rounds, so
// every complete round contains each value exactly as often as listed.
type block[T any] struct {
	vals []T
	rng  *rand.Rand
	buf  []T
}

func (b *block[T]) next() T {
	if len(b.buf) == 0 {
		b.buf = append(b.buf[:0], b.vals...)
		b.rng.Shuffle(len(b.buf), func(i, j int) { b.buf[i], b.buf[j] = b.buf[j], b.buf[i] })
	}
	v := b.buf[0]
	b.buf = b.buf[1:]
	return v
}

// hvSpec is the Rossby-Haurwitz hyperviscosity load model of the weights
// package.
const hvSpec = "hv:amp=16,m=6"

// sfcStream generates sfc-large-cold: Ne=384 requests through the curve
// path with method sfc or auto (both SFC at Ne >= the server's LargeNe) and
// uniform, cfl or hv weights in equal thirds. nparts never repeats within a
// stream, and the two clients draw from disjoint residues, so no key
// repeats anywhere in a run.
type sfcStream struct {
	rng     *rand.Rand
	client  int
	used    map[int]bool
	methods block[string]
	weights block[string]
}

const (
	sfcNe = 384
	// nparts = 2*k + client with k in [sfcMinHalf, sfcMaxHalf): 1024 to
	// 9999 parts, so nparts always has four digits and every answer is
	// 3.5 to 4.4 MB.
	sfcMinHalf  = 512
	sfcMaxHalf  = 5000
	sfcWarmHalf = 256 // warm-up requests use k below sfcMinHalf
)

func newSFCStream(seed int64, client int) *sfcStream {
	rng := newRand(seed, uint64(client), 1)
	return &sfcStream{
		rng: rng, client: client, used: map[int]bool{},
		methods: block[string]{vals: []string{"sfc", "auto"}, rng: rng},
		weights: block[string]{vals: []string{"", "cfl", hvSpec}, rng: rng},
	}
}

func (s *sfcStream) Next() Item {
	k := sfcMinHalf + s.rng.IntN(sfcMaxHalf-sfcMinHalf)
	for s.used[k] {
		k = sfcMinHalf + s.rng.IntN(sfcMaxHalf-sfcMinHalf)
	}
	s.used[k] = true
	return Item{Req: Request{Ne: sfcNe, NParts: 2*k + s.client, Method: s.methods.next(), Weights: s.weights.next()}}
}

// metisStream generates metis-mixed: multilevel requests (kway, rb, auto)
// at Ne 24-96, a third of them cfl-weighted. Requests come in blocks of
// four holding one new key and three repeats of keys this client issued
// before, so a repeat always hits the cache (the closed loop has already
// received the first answer) and never joins an in-flight computation. The
// repeat share is therefore 3/4 at any request rate: p50 falls among cache
// hits and p90 among computations. New keys cycle through every (Ne,
// method, weights) combination in seeded shuffled rounds to keep the
// computation mix the same from seed to seed.
type metisStream struct {
	rng     *rand.Rand
	client  int
	combos  block[metisCombo]
	history []Request
	seen    map[string]bool
	pos     int // position within the current block of four
	newAt   int // position of the block's new key
}

type metisCombo struct {
	ne      int
	method  string
	weights string
}

const (
	metisBlock = 4
	// metisWindow is how many of a stream's latest new keys a repeat draws
	// from. While a key is in its stream's window, each stream issues about
	// metisWindow new keys and repeats only keys of its own window, so the
	// entries used since the key was last used number about 4*metisWindow,
	// each of at most about 250 kB (Ne=96 in K/48 parts): inside partsrv's
	// 64 MiB LRU response cache, so no repeat misses however fast the
	// server answers. runPartsrv checks that every repeat was a cache hit.
	metisWindow = 32
	// metisMinElemsPerPart keeps every part large enough that K-way meets
	// the default balance limit, so no request walks the fallback chain
	// into an open breaker.
	metisMinElemsPerPart = 48
)

// metisNe lists the face sizes of new keys, with multiplicity: Ne=96
// answers are large, so they are the rarest.
var metisNe = []int{24, 24, 48, 48, 96}

func newMetisStream(seed int64, client int) *metisStream {
	rng := newRand(seed, uint64(client), 2)
	var combos []metisCombo
	for _, ne := range metisNe {
		for _, m := range []string{"kway", "rb", "auto"} {
			for _, w := range []string{"", "", "cfl"} {
				combos = append(combos, metisCombo{ne, m, w})
			}
		}
	}
	return &metisStream{rng: rng, client: client, combos: block[metisCombo]{vals: combos, rng: rng}, seen: map[string]bool{}}
}

func (s *metisStream) Next() Item {
	if s.pos == 0 {
		s.newAt = s.rng.IntN(metisBlock)
		if len(s.history) == 0 {
			s.newAt = 0
		}
	}
	isNew := s.pos == s.newAt
	s.pos = (s.pos + 1) % metisBlock
	if !isNew {
		recent := s.history[max(0, len(s.history)-metisWindow):]
		return Item{Req: recent[s.rng.IntN(len(recent))], Repeat: true}
	}
	for {
		c := s.combos.next()
		k := 6 * c.ne * c.ne
		lo, hi := math.Log(16), math.Log(float64(k/metisMinElemsPerPart))
		r := Request{
			Ne: c.ne, NParts: int(math.Exp(lo + s.rng.Float64()*(hi-lo))),
			Method: c.method, Weights: c.weights,
			// Odd seeds for client 1, even for client 0: the clients'
			// key sets are disjoint.
			Seed: int64(2*(1+s.rng.IntN(1<<20)) + s.client), HasSeed: true,
		}
		if s.seen[r.Key()] {
			continue
		}
		s.seen[r.Key()] = true
		s.history = append(s.history, r)
		return Item{Req: r}
	}
}

// warmRequest returns the untimed warm-up request of a client: a key no
// timed request of either workload uses.
func warmRequest(workload string, client int) Request {
	if workload == "sfc-large-cold" {
		return Request{Ne: sfcNe, NParts: 2*(sfcWarmHalf+client) + client, Method: "sfc"}
	}
	return Request{Ne: 24, NParts: 32, Method: "kway", Seed: int64(-1 - client), HasSeed: true}
}

// setupRequest returns the request every set-up sends to a fresh server:
// a full computation of the workload's kind, on a key no other request of
// either workload uses.
func setupRequest(workload string) Request {
	if workload == "sfc-large-cold" {
		return Request{Ne: sfcNe, NParts: 2*(sfcWarmHalf+clients) + 1, Method: "sfc"}
	}
	return Request{Ne: 96, NParts: 96, Method: "kway", Seed: int64(-1 - clients), HasSeed: true}
}

func (r Request) String() string {
	return fmt.Sprintf("ne=%d nparts=%d method=%s seed=%d weights=%q", r.Ne, r.NParts, r.Method, r.Seed, r.Weights)
}
