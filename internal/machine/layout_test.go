package machine

import (
	"math"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/partition"
)

func TestNodeLayoutUniform(t *testing.T) {
	nodeOf, n := NodeLayout(20, Model{ProcsPerNode: 8})
	if n != 3 {
		t.Errorf("numNodes = %d, want 3", n)
	}
	if nodeOf[0] != 0 || nodeOf[7] != 0 || nodeOf[8] != 1 || nodeOf[19] != 2 {
		t.Errorf("layout wrong: %v", nodeOf)
	}
}

// SimulateStep must be a pure function of its inputs: the per-pair message
// costs are summed in StepMessages' (from, to) order, so every call yields
// the same CommTime and StepTime bits (a map-order sum would not).
func TestSimulateStepBitwiseRepeatable(t *testing.T) {
	w := DefaultWorkload()
	mod := NCARP690()
	for _, c := range []struct{ ne, nproc int }{{16, 768}, {8, 96}} {
		res, err := core.PartitionCubedSphere(core.Config{Ne: c.ne, NProcs: c.nproc})
		if err != nil {
			t.Fatal(err)
		}
		first, err := SimulateStep(res.Mesh, res.Partition, w, mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			got, err := SimulateStep(res.Mesh, res.Partition, w, mod, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.StepTime) != math.Float64bits(first.StepTime) {
				t.Fatalf("Ne=%d/%d call %d: StepTime %v != first %v", c.ne, c.nproc, rep, got.StepTime, first.StepTime)
			}
			for q := range got.CommTime {
				if math.Float64bits(got.CommTime[q]) != math.Float64bits(first.CommTime[q]) {
					t.Fatalf("Ne=%d/%d call %d: CommTime[%d] %v != first %v",
						c.ne, c.nproc, rep, q, got.CommTime[q], first.CommTime[q])
				}
			}
		}
	}
}

func TestOverlapReducesStepTime(t *testing.T) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 96})
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWorkload()
	blocking := NCARP690()
	overlapped := NCARP690()
	overlapped.Overlap = 1.0
	rb, err := SimulateStep(res.Mesh, res.Partition, w, blocking, nil)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := SimulateStep(res.Mesh, res.Partition, w, overlapped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ro.StepTime >= rb.StepTime {
		t.Errorf("full overlap %v not faster than blocking %v", ro.StepTime, rb.StepTime)
	}
	// With full overlap and comm < comp, the step time is pure compute.
	if ro.StepTime > ro.MaxComputeTime()*1.0001 {
		t.Errorf("overlapped step %v should equal max compute %v",
			ro.StepTime, ro.MaxComputeTime())
	}
}

func TestOverlapPartial(t *testing.T) {
	m := mustMesh(t, 4)
	k := m.NumElems()
	p := partition.New(k, 2)
	for e := 0; e < k; e++ {
		p.SetPart(e, e%2)
	}
	w := DefaultWorkload()
	half := NCARP690()
	half.Overlap = 0.5
	full := NCARP690()
	full.Overlap = 1.0
	r0, _ := SimulateStep(m, p, w, NCARP690(), nil)
	rh, _ := SimulateStep(m, p, w, half, nil)
	rf, _ := SimulateStep(m, p, w, full, nil)
	if !(rf.StepTime <= rh.StepTime && rh.StepTime <= r0.StepTime) {
		t.Errorf("overlap not monotone: %v %v %v", r0.StepTime, rh.StepTime, rf.StepTime)
	}
}
