package seam

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
)

// Williamson test case 2: steady geostrophic flow. The discrete solution
// must stay near the initial state and conserve mass.
func TestShallowWaterWilliamson2(t *testing.T) {
	g := testGrid(t, 4, 6)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400) // ~38.6 m/s
	gh0 := 2.94e4
	wind, phi := Williamson2(g.Radius, g.Omega, u0, gh0)
	sw.SetState(wind, phi)

	mass0 := sw.TotalMass()
	dt := sw.MaxStableDt(0.4)
	T := 6 * 3600.0 // six hours
	steps := int(math.Ceil(T / dt))
	dt = T / float64(steps)
	for s := 0; s < steps; s++ {
		sw.Step(dt)
	}
	errL2 := sw.PhiL2Error(phi)
	if math.IsNaN(errL2) || errL2 > 1e-6 {
		t.Errorf("Williamson 2 Phi error %v after 6 h, want < 1e-6", errL2)
	}
	mass1 := sw.TotalMass()
	if rel := math.Abs(mass1-mass0) / math.Abs(mass0); rel > 1e-10 {
		t.Errorf("mass drifted by %v", rel)
	}
	if sw.Flops == 0 {
		t.Error("flop counter not incremented")
	}
}

// A resting state with flat geopotential is an exact steady solution.
func TestShallowWaterStateOfRest(t *testing.T) {
	g := testGrid(t, 2, 4)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetState(
		func(mesh.Vec3) mesh.Vec3 { return mesh.Vec3{} },
		func(mesh.Vec3) float64 { return 1e4 },
	)
	dt := sw.MaxStableDt(0.4)
	for s := 0; s < 20; s++ {
		sw.Step(dt)
	}
	v1, v2, phi := sw.StateSlabs()
	for i := range phi {
		if math.Abs(phi[i]-1e4) > 1e-6 {
			t.Fatalf("rest state Phi drifted to %v", phi[i])
		}
		if math.Abs(v1[i]) > 1e-6*g.Radius || math.Abs(v2[i]) > 1e-6*g.Radius {
			t.Fatalf("rest state velocity grew to %v, %v", v1[i], v2[i])
		}
	}
}

func TestMaxStableDtPositive(t *testing.T) {
	g := testGrid(t, 2, 4)
	sw, _ := NewShallowWater(g)
	wind, phi := Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.5)
	if !(dt > 0) || math.IsInf(dt, 1) {
		t.Errorf("MaxStableDt = %v", dt)
	}
}

func TestFlopFormulasPositiveAndMonotone(t *testing.T) {
	if diffFlops(8) <= diffFlops(4) {
		t.Error("diffFlops not monotone")
	}
	if rhsFlopsShallowWater(10, 8) != 10*rhsFlopsShallowWater(1, 8) {
		t.Error("SW flops not linear in element count")
	}
	if StepFlopsShallowWater(8) <= 4*rhsFlopsShallowWater(1, 8) {
		t.Error("step flops must exceed 4 RHS evaluations")
	}
	if BoundaryExchangeBytes(8) != 64 {
		t.Error("boundary exchange bytes wrong")
	}
}

func BenchmarkShallowWaterStepNe8Np8(b *testing.B) {
	g, err := NewGrid(8, 7, EarthRadius, EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := NewShallowWater(g)
	if err != nil {
		b.Fatal(err)
	}
	wind, phi := Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Step(dt)
	}
}
