package seam

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
)

func TestDSSNodeCount(t *testing.T) {
	// On a conforming cubed-sphere GLL grid the number of distinct global
	// points is 6*(ne*n)^2 + 2 (the Euler characteristic of the sphere:
	// V = E - F + 2 with F = 6*(ne*n)^2 quad faces of the fine point grid).
	for _, cfg := range [][2]int{{1, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 7}} {
		ne, n := cfg[0], cfg[1]
		g := testGrid(t, ne, n)
		d, err := NewDSS(g)
		if err != nil {
			t.Fatal(err)
		}
		want := 6*(ne*n)*(ne*n) + 2
		if d.NumGlobalNodes() != want {
			t.Errorf("ne=%d n=%d: %d global nodes, want %d", ne, n, d.NumGlobalNodes(), want)
		}
	}
}

// Shared points identified topologically must coincide geometrically.
func TestDSSSharedPointsCoincide(t *testing.T) {
	g := testGrid(t, 3, 5)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < d.NumSharedNodes(); s++ {
		pts := d.members(s)
		p0 := g.PosF[pts[0]]
		for _, p := range pts[1:] {
			q := g.PosF[p]
			if p0.Sub(q).Norm() > 1e-6 { // metres, on a 6.4e6 m sphere
				t.Fatalf("shared points %v and %v are %.3e m apart", p0, q, p0.Sub(q).Norm())
			}
		}
	}
}

// A smooth global function sampled per element is already continuous, so
// Apply must not change it (beyond roundoff).
func TestDSSPreservesContinuousFields(t *testing.T) {
	g := testGrid(t, 2, 6)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
	flat, q := g.FieldSlab()
	f := func(p mesh.Vec3) float64 {
		x, y, z := p.X/g.Radius, p.Y/g.Radius, p.Z/g.Radius
		return math.Sin(3*x) + math.Cos(2*y)*z
	}
	for i, p := range g.PosF {
		flat[i] = f(p)
	}
	if disc := d.MaxDiscontinuity(q); disc > 1e-8 {
		t.Fatalf("continuous field has discontinuity %v before Apply", disc)
	}
	before := g.Integrate(q)
	d.Apply(q)
	if disc := d.MaxDiscontinuity(q); disc > 1e-12 {
		t.Errorf("discontinuity %v after Apply", disc)
	}
	after := g.Integrate(q)
	if math.Abs(after-before) > 1e-9*math.Abs(before) {
		t.Errorf("Apply changed the integral: %v -> %v", before, after)
	}
}

// Apply must make any field continuous and be idempotent.
func TestDSSApplyIdempotent(t *testing.T) {
	g := testGrid(t, 2, 4)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Field()
	// Deterministic pseudo-random discontinuous field.
	s := uint64(12345)
	for e := range q {
		for i := range q[e] {
			s = s*6364136223846793005 + 1442695040888963407
			q[e][i] = float64(s>>33) / float64(1<<31)
		}
	}
	d.Apply(q)
	if disc := d.MaxDiscontinuity(q); disc > 1e-12 {
		t.Fatalf("field not continuous after Apply: %v", disc)
	}
	snapshot := g.Field()
	for e := range q {
		copy(snapshot[e], q[e])
	}
	d.Apply(q)
	for e := range q {
		for i := range q[e] {
			if math.Abs(q[e][i]-snapshot[e][i]) > 1e-13*(1+math.Abs(snapshot[e][i])) {
				t.Fatalf("Apply not idempotent at elem %d point %d: %v vs %v",
					e, i, q[e][i], snapshot[e][i])
			}
		}
	}
}

// Every interior point belongs to one element; every edge point to 2; corner
// points to 4 except at the 8 cube corners where 3 elements meet.
func TestDSSMultiplicity(t *testing.T) {
	g := testGrid(t, 2, 3)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
	npts := g.PointsPerElem()
	counts := make(map[int32]int)
	for e := 0; e < g.NumElems(); e++ {
		for i := 0; i < npts; i++ {
			counts[d.GlobalNode(e, i)]++
		}
	}
	hist := map[int]int{}
	for _, c := range counts {
		hist[c]++
	}
	if hist[3] != 8 {
		t.Errorf("%d nodes of multiplicity 3, want 8 (cube corners)", hist[3])
	}
	for c := range hist {
		if c != 1 && c != 2 && c != 3 && c != 4 {
			t.Errorf("unexpected multiplicity %d", c)
		}
	}
	if d.NumSharedNodes() != hist[2]+hist[3]+hist[4] {
		t.Errorf("shared node count mismatch")
	}
}

// Validate accepts a freshly built plan and rejects a plan with one
// corrupted vector-geometry entry, denominator or member point: nothing
// else checks the cached contents the apply paths trust.
func TestDSSValidateRejectsCorruptPlan(t *testing.T) {
	g := testGrid(t, 2, 4)
	fresh := func() *DSS {
		d, err := NewDSS(g)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("fresh plan rejected: %v", err)
	}
	interior := int32(g.Np + 1) // point (1, 1) of element 0: one member only
	for name, corrupt := range map[string]func(d *DSS){
		"vgeo.gi12": func(d *DSS) { d.vgeo[5].gi12 = math.Nextafter(d.vgeo[5].gi12, 1) },
		"vgeo.eb":   func(d *DSS) { d.vgeo[len(d.vgeo)-1].eb.Z += 1 },
		"den":       func(d *DSS) { d.den[3] = math.Nextafter(d.den[3], 0) },
		"pts":       func(d *DSS) { d.pts[2] = interior },
	} {
		d := fresh()
		corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted a plan with corrupted %s", name)
		}
	}
}

func BenchmarkDSSApplyNe8Np8(b *testing.B) {
	g, err := NewGrid(8, 7, EarthRadius, EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDSS(g)
	if err != nil {
		b.Fatal(err)
	}
	q := g.Field()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(q)
	}
}
