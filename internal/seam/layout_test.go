package seam

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The flat-slab layout contract: Field views and the FieldSlab backing are
// the same memory, and Grid.Slab recovers the backing from the views.
func TestFieldSlabAliasesViews(t *testing.T) {
	g := testGrid(t, 2, 4)
	flat, views := g.FieldSlab()
	npts := g.PointsPerElem()
	if len(flat) != g.NumElems()*npts {
		t.Fatalf("slab length %d, want %d", len(flat), g.NumElems()*npts)
	}
	views[3][5] = 42.5
	if flat[3*npts+5] != 42.5 {
		t.Error("write through view not visible in slab")
	}
	flat[7*npts+1] = -7.25
	if views[7][1] != -7.25 {
		t.Error("write through slab not visible in view")
	}
	got := g.Slab(views)
	if got == nil {
		t.Fatal("Slab failed to recover contiguous backing")
	}
	if &got[0] != &flat[0] || len(got) != len(flat) {
		t.Error("Slab recovered a different backing")
	}
	// Field() must produce the same layout.
	q := g.Field()
	if g.Slab(q) == nil {
		t.Error("Slab failed on Field()-allocated field")
	}
	// A row-by-row allocated field is not a slab and must be rejected, not
	// misread.
	ragged := make([][]float64, g.NumElems())
	for e := range ragged {
		ragged[e] = make([]float64, npts)
	}
	if g.Slab(ragged) != nil {
		t.Error("Slab accepted non-contiguous per-row allocation")
	}
}

// Grid.Integrate must be unchanged by the layout refactor: the slab path
// and the definitional per-point MassWeight sum (in the same element-major
// order) agree bitwise.
func TestIntegrateUnchangedByLayout(t *testing.T) {
	g := testGrid(t, 3, 5)
	np := g.Np
	rng := rand.New(rand.NewSource(7))
	q := g.Field()
	for e := range q {
		for i := range q[e] {
			q[e][i] = rng.NormFloat64()
		}
	}
	// Definitional sum: element-major, b-major, a-minor — the seed order.
	var want float64
	for e := 0; e < g.NumElems(); e++ {
		for b := 0; b < np; b++ {
			for a := 0; a < np; a++ {
				want += q[e][b*np+a] * g.MassWeight(e, a, b)
			}
		}
	}
	if got := g.Integrate(q); got != want {
		t.Errorf("Integrate (slab path) = %v, want %v (diff %g)", got, want, got-want)
	}
	// MassWeight itself must still be the quadrature expression.
	for _, e := range []int{0, 5, g.NumElems() - 1} {
		for b := 0; b < np; b++ {
			for a := 0; a < np; a++ {
				expr := g.GLL.Wts[a] * g.GLL.Wts[b] * g.SqrtGF[e*np*np+b*np+a] * (g.DAlpha / 2) * (g.DAlpha / 2)
				if g.MassWeight(e, a, b) != expr {
					t.Fatalf("MassWeight(%d,%d,%d) != w_a w_b sqrtG (dA/2)^2", e, a, b)
				}
			}
		}
	}
}

// The fused derivative kernel must be bitwise identical to the separate
// DiffAlpha / DiffBeta calls it replaces on the hot path.
func TestDiffAlphaBetaMatchesSeparate(t *testing.T) {
	g := testGrid(t, 2, 6)
	npts := g.PointsPerElem()
	rng := rand.New(rand.NewSource(3))
	u := make([]float64, npts)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	daS, dbS := make([]float64, npts), make([]float64, npts)
	daF, dbF := make([]float64, npts), make([]float64, npts)
	g.DiffAlpha(u, daS)
	g.DiffBeta(u, dbS)
	g.DiffAlphaBeta(u, daF, dbF)
	for i := 0; i < npts; i++ {
		if daS[i] != daF[i] || dbS[i] != dbF[i] {
			t.Fatalf("fused derivative differs at point %d: (%v,%v) vs (%v,%v)",
				i, daF[i], dbF[i], daS[i], dbS[i])
		}
	}
}

// Every entry point that takes per-element views runs only on slab-backed
// fields; rows allocated one by one are refused with a panic that names the
// allocators, never silently misread.
func TestRaggedFieldPanics(t *testing.T) {
	g := testGrid(t, 2, 3)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
	ragged := make([][]float64, g.NumElems())
	for e := range ragged {
		ragged[e] = make([]float64, g.PointsPerElem())
	}
	for name, f := range map[string]func(){
		"Integrate":        func() { g.Integrate(ragged) },
		"Apply":            func() { d.Apply(ragged) },
		"ApplyVector":      func() { d.ApplyVector(g.Field(), ragged) },
		"MaxDiscontinuity": func() { d.MaxDiscontinuity(ragged) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Grid.Field") || !strings.Contains(msg, "FieldSlab") {
					t.Errorf("%s on a ragged field: panic %q, want one naming Grid.Field/FieldSlab", name, msg)
				}
			}()
			f()
		}()
	}
}

// refShared is the reference per-node assembly table: for every global
// node touched by more than one element, its member points in ascending
// order and their quadrature masses, rebuilt from nodeOf independently of
// the CSR exchange plan.
type refShared struct {
	pts  []int32 // elem*npts + idx
	mass []float64
}

func refSharedNodes(d *DSS) []refShared {
	g := d.g
	np := g.Np
	npts := np * np
	members := make([][]int32, d.numNodes)
	for i, gid := range d.nodeOf {
		members[gid] = append(members[gid], int32(i))
	}
	var out []refShared
	for _, pts := range members {
		if len(pts) < 2 {
			continue
		}
		sn := refShared{pts: pts, mass: make([]float64, len(pts))}
		for i, p := range pts {
			e := int(p) / npts
			idx := int(p) % npts
			sn.mass[i] = g.MassWeight(e, idx%np, idx/np)
		}
		out = append(out, sn)
	}
	return out
}

// refApply is the (elem, idx) projection the exchange plan replaced: it
// indexes per-element rows, so it runs on any [][]float64.
func refApply(d *DSS, q [][]float64) {
	npts := d.g.PointsPerElem()
	for _, sn := range refSharedNodes(d) {
		var num, den float64
		for i, p := range sn.pts {
			num += sn.mass[i] * q[int(p)/npts][int(p)%npts]
			den += sn.mass[i]
		}
		avg := num / den
		for _, p := range sn.pts {
			q[int(p)/npts][int(p)%npts] = avg
		}
	}
}

// refApplyVector is the (elem, idx) covariant-vector projection the
// exchange plan replaced.
func refApplyVector(d *DSS, v1, v2 [][]float64) {
	g := d.g
	npts := g.PointsPerElem()
	for _, sn := range refSharedNodes(d) {
		var sx, sy, sz, den float64
		for i, p := range sn.pts {
			e, idx := int(p)/npts, int(p)%npts
			u1 := g.GI11F[p]*v1[e][idx] + g.GI12F[p]*v2[e][idx]
			u2 := g.GI12F[p]*v1[e][idx] + g.GI22F[p]*v2[e][idx]
			ea, eb := g.EaF[p], g.EbF[p]
			m := sn.mass[i]
			sx += m * (u1*ea.X + u2*eb.X)
			sy += m * (u1*ea.Y + u2*eb.Y)
			sz += m * (u1*ea.Z + u2*eb.Z)
			den += m
		}
		rd := 1 / den
		sx, sy, sz = sx*rd, sy*rd, sz*rd
		for _, p := range sn.pts {
			e, idx := int(p)/npts, int(p)%npts
			ea, eb := g.EaF[p], g.EbF[p]
			v1[e][idx] = sx*ea.X + sy*ea.Y + sz*ea.Z
			v2[e][idx] = sx*eb.X + sy*eb.Y + sz*eb.Z
		}
	}
}

// The DSS exchange plan and the (elem, idx) reference projection must
// produce bitwise identical results, and the plan must list exactly the
// reference's nodes and members in the same order.
func TestDSSPlanMatchesFallback(t *testing.T) {
	g := testGrid(t, 2, 4)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := refSharedNodes(d)
	if len(ref) != d.NumSharedNodes() {
		t.Fatalf("plan has %d nodes, reference %d", d.NumSharedNodes(), len(ref))
	}
	for s, sn := range ref {
		pts := d.members(s)
		if !slices.Equal(pts, sn.pts) {
			t.Fatalf("plan node %d members %v, reference %v", s, pts, sn.pts)
		}
		if !slices.Equal(d.mass[d.ptr[s]:d.ptr[s+1]], sn.mass) {
			t.Fatalf("plan node %d masses differ from the reference", s)
		}
	}
	rng := rand.New(rand.NewSource(11))
	contig := g.Field() // slab-backed: takes the plan path
	ragged := make([][]float64, g.NumElems())
	for e := range contig {
		for i := range contig[e] {
			contig[e][i] = rng.NormFloat64()
		}
		ragged[e] = append([]float64(nil), contig[e]...) // reference path
	}
	d.Apply(contig)
	refApply(d, ragged)
	for e := range contig {
		for i := range contig[e] {
			if contig[e][i] != ragged[e][i] {
				t.Fatalf("scalar DSS plan/fallback differ at elem %d point %d", e, i)
			}
		}
	}
	// Vector projection.
	cv1, cv2 := g.Field(), g.Field()
	rv1 := make([][]float64, g.NumElems())
	rv2 := make([][]float64, g.NumElems())
	for e := range cv1 {
		for i := range cv1[e] {
			cv1[e][i] = rng.NormFloat64()
			cv2[e][i] = rng.NormFloat64()
		}
		rv1[e] = append([]float64(nil), cv1[e]...)
		rv2[e] = append([]float64(nil), cv2[e]...)
	}
	d.ApplyVector(cv1, cv2)
	refApplyVector(d, rv1, rv2)
	for e := range cv1 {
		for i := range cv1[e] {
			if cv1[e][i] != rv1[e][i] || cv2[e][i] != rv2[e][i] {
				t.Fatalf("vector DSS plan/fallback differ at elem %d point %d", e, i)
			}
		}
	}
}

// Williamson-6 diagnostics must be unchanged by the layout refactor: the
// parallel flat-slab runner and the sequential solver report bitwise equal
// conserved integrals, and both conserve them to the documented tolerances.
func TestWilliamson6DiagnosticsUnchangedByLayout(t *testing.T) {
	build := func() (*ShallowWater, float64) {
		g := testGrid(t, 2, 5)
		sw, err := NewShallowWater(g)
		if err != nil {
			t.Fatal(err)
		}
		wind, phi := Williamson6(g.Radius, g.Omega)
		sw.SetState(wind, phi)
		return sw, sw.MaxStableDt(0.3)
	}
	seqSW, dt := build()
	parSW, _ := build()
	if seqSW.TotalMass() != parSW.TotalMass() {
		t.Fatal("initial states differ")
	}
	mass0, e0, q0 := seqSW.TotalMass(), seqSW.TotalEnergy(), seqSW.PotentialEnstrophy()

	const steps = 12
	for s := 0; s < steps; s++ {
		seqSW.Step(dt)
	}
	r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(steps, dt)

	if seqSW.TotalMass() != parSW.TotalMass() {
		t.Errorf("TotalMass differs: %v vs %v", seqSW.TotalMass(), parSW.TotalMass())
	}
	if seqSW.TotalEnergy() != parSW.TotalEnergy() {
		t.Errorf("TotalEnergy differs: %v vs %v", seqSW.TotalEnergy(), parSW.TotalEnergy())
	}
	if seqSW.PotentialEnstrophy() != parSW.PotentialEnstrophy() {
		t.Errorf("PotentialEnstrophy differs: %v vs %v",
			seqSW.PotentialEnstrophy(), parSW.PotentialEnstrophy())
	}
	if rel := math.Abs(parSW.TotalMass()-mass0) / mass0; rel > 1e-12 {
		t.Errorf("TC6 mass drift %v through the parallel runner", rel)
	}
	if rel := math.Abs(parSW.TotalEnergy()-e0) / e0; rel > 1e-6 {
		t.Errorf("TC6 energy drift %v through the parallel runner", rel)
	}
	if rel := math.Abs(parSW.PotentialEnstrophy()-q0) / q0; rel > 1e-4 {
		t.Errorf("TC6 enstrophy drift %v through the parallel runner", rel)
	}
}
