package par

import "testing"

// SplitMix64 must reproduce the reference SplitMix64 stream seeded with 0:
// the metis partitions, fault plans and chaos replays all derive from it.
func TestSplitMix64ReferenceStream(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var s uint64
	for i, w := range want {
		if got := SplitMix64(s); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
		s += 0x9e3779b97f4a7c15
	}
}
