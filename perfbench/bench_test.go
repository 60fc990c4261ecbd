package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sfccube/internal/partition"
	"sfccube/internal/service"
)

func take(s Stream, n int) []Item {
	out := make([]Item, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, mk := range []func(int64, int) Stream{
		func(seed int64, c int) Stream { return newSFCStream(seed, c) },
		func(seed int64, c int) Stream { return newMetisStream(seed, c) },
	} {
		for c := 0; c < clients; c++ {
			a, b := take(mk(7, c), 400), take(mk(7, c), 400)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("client %d: seed 7 gave two different sequences", c)
			}
			if reflect.DeepEqual(a, take(mk(8, c), 400)) {
				t.Fatalf("client %d: seeds 7 and 8 gave the same sequence", c)
			}
		}
	}
}

func TestSFCLargeColdNeverRepeatsAKey(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		seen[warmRequest("sfc-large-cold", c).Key()] = true
	}
	seen[setupRequest("sfc-large-cold").Key()] = true
	if len(seen) != clients+1 {
		t.Fatal("set-up and warm-up requests share a key")
	}
	counts := map[string]int{}
	for c := 0; c < clients; c++ {
		for _, it := range take(newSFCStream(3, c), 2000) {
			if it.Repeat || seen[it.Req.Key()] {
				t.Fatalf("client %d repeated key %s", c, it.Req.Key())
			}
			seen[it.Req.Key()] = true
			counts[it.Req.Weights]++
			if it.Req.Ne != sfcNe || (it.Req.Method != "sfc" && it.Req.Method != "auto") {
				t.Fatalf("off-workload request %v", it.Req)
			}
		}
	}
	// Uniform, cfl and hv in equal thirds (up to one incomplete block per
	// client).
	for spec, n := range counts {
		if n < 2*2000/3-clients || n > 2*2000/3+clients {
			t.Errorf("weights %q: %d of %d requests", spec, n, 2*2000)
		}
	}
}

func TestMetisMixedRepeatShare(t *testing.T) {
	const n = 1200
	owner := map[string]int{}
	for c := 0; c < clients; c++ {
		issued := map[string]bool{}
		repeats := 0
		for i, it := range take(newMetisStream(5, c), n) {
			k := it.Req.Key()
			if it.Repeat {
				repeats++
				if !issued[k] {
					t.Fatalf("client %d request %d repeats a key it never issued", c, i)
				}
				continue
			}
			if issued[k] {
				t.Fatalf("client %d request %d: new key %s already issued", c, i, k)
			}
			if o, ok := owner[k]; ok && o != c {
				t.Fatalf("key %s issued by clients %d and %d", k, o, c)
			}
			issued[k], owner[k] = true, c
			if k := 6 * it.Req.Ne * it.Req.Ne; it.Req.NParts < 16 || k/it.Req.NParts < metisMinElemsPerPart {
				t.Fatalf("request %v has parts below %d elements", it.Req, metisMinElemsPerPart)
			}
		}
		// One new key per block of four.
		if repeats != n*3/4 {
			t.Errorf("client %d: %d repeats in %d requests, want %d", c, repeats, n, n*3/4)
		}
	}
}

func TestMetisMixedRepeatsStayCached(t *testing.T) {
	ne := slices.Max(metisNe)
	if got := 4 * metisWindow * encodedBytes(t, ne, 6*ne*ne/metisMinElemsPerPart); got > 48<<20 {
		t.Fatalf("4 windows of the largest key take %d bytes, too close to the 64 MiB cache", got)
	}
	s := newMetisStream(9, 0)
	var issued []string
	for i := 0; i < 4000; i++ {
		it := s.Next()
		if !it.Repeat {
			issued = append(issued, it.Req.Key())
			continue
		}
		if !slices.Contains(issued[max(0, len(issued)-metisWindow):], it.Req.Key()) {
			t.Fatalf("request %d repeats a key outside the last %d new keys", i, metisWindow)
		}
	}
}

// encodedBytes returns the size of a weighted partsrv response for an
// nparts-way partition at Ne, with part numbers spread over the elements
// as evenly as a balanced partition spreads them.
func encodedBytes(t *testing.T, ne, nparts int) int {
	k := 6 * ne * ne
	assign := make([]int32, k)
	for i := range assign {
		assign[i] = int32(i * nparts / k)
	}
	per := make([]int, nparts)
	spcv, weights := make([]int64, nparts), make([]int64, nparts)
	for i := range per {
		per[i], spcv[i], weights[i] = k/nparts, int64(k/nparts), 1<<40
	}
	b, err := json.Marshal(service.Response{
		Key: strings.Repeat("0", 64), Ne: ne, NParts: nparts, Method: "kway", Seed: 1 << 20, Strategy: "KWAY",
		WeightsSpec: "cfl", Assignment: assign,
		Stats: partition.Stats{NParts: nparts, Nelemd: per, Spcv: spcv, PartWeights: weights},
	})
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {10, 0, false}, {20, 0.5, true}, {40, 0.75, true},
		{99, 0.75, true}, {100, 0.9, true}, {199, 0.9, true}, {200, 0.95, true},
		{1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && samplesBeyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", tc.n, got, samplesBeyond(tc.n, got))
		}
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("median rank of 1..5 = %v, want 3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 2, Start: 35, End: 45}, // grandchild: not span 0's business
		{ID: 4, Parent: -1, Start: 200, End: 260},
	}
	want := []time.Duration{100 - 20 - 30, 20, 30 - 10, 10, 60}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	rec := NewRecorder(time.Now())
	root := rec.Begin("root", -1, 7)
	rec.End(rec.Begin("child", root, 7))
	rec.End(root)
	if got := rec.Spans(); len(got) != 2 || got[1].Parent != root || got[1].Req != 7 || got[1].End < got[1].Start {
		t.Errorf("recorded spans %+v", got)
	}
}

func TestParseResponse(t *testing.T) {
	resp := service.Response{
		Key: "k", Ne: 2, NParts: 3, Method: "kway", Seed: 4, Strategy: "KWAY",
		Attempts:   []string{"KWAY(seed 4): x"},
		Stats:      partition.Stats{NParts: 3, Nelemd: []int{8, 8, 8}},
		Assignment: []int32{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2},
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, resp) {
		t.Errorf("parseResponse = %+v, want %+v", *got, resp)
	}
	for _, bad := range []string{
		`{"key":"k","ne":1,"nparts":1,"method":"sfc","bogus":0,"stats":{},"assignment":[1]}`,
		`{"key":"k","ne":1,"nparts":1,"method":"sfc","stats":{},"assignment":[1]}{}`,
	} {
		if _, err := parseResponse([]byte(bad)); err == nil {
			t.Errorf("parseResponse accepted %s", bad)
		}
	}
	strat, seed, err := parseAttempt(resp.Attempts[0])
	if err != nil || strat != "KWAY" || seed != 4 {
		t.Errorf("parseAttempt = %q, %d, %v", strat, seed, err)
	}
}

// TestBenchmarkJSONNamesTheReportedMetrics keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	conv := func(ds []metricDef) []def {
		var out []def
		for _, d := range ds {
			out = append(out, def{d.name, d.unit})
		}
		return out
	}
	if !reflect.DeepEqual(bj.EndToEnd, conv(endToEnd)) {
		t.Errorf("end_to_end %v, program reports %v", bj.EndToEnd, conv(endToEnd))
	}
	if !reflect.DeepEqual(bj.PerLayer, conv(perLayer)) {
		t.Errorf("per_layer %v, program reports %v", bj.PerLayer, conv(perLayer))
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
