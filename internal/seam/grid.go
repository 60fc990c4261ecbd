package seam

import (
	"fmt"
	"math"

	"sfccube/internal/mesh"
)

// EarthRadius is the radius used by the standard shallow-water test cases
// (Williamson et al. 1992), in metres.
const EarthRadius = 6.37122e6

// EarthOmega is the Earth's rotation rate in 1/s.
const EarthOmega = 7.292e-5

// Gravity is the gravitational acceleration in m/s^2.
const Gravity = 9.80616

// Grid is the spectral element grid: a cubed-sphere mesh with an Np x Np
// GLL grid inside every element, plus all geometric factors of the
// equiangular gnomonic mapping evaluated at every GLL point.
//
// Index conventions: element point (a, b), with a the alpha index and b the
// beta index, is stored at flat index b*Np + a. Coordinate 1 is alpha,
// coordinate 2 is beta.
//
// Memory layout: every per-point array is one contiguous element-major slab
// ([]T of length K*Np*Np). Point (e, idx) lives at slab offset
// e*Np*Np + idx, so a flat element-point id doubles as a direct slab offset
// for the batched RHS kernels and the DSS exchange plan.
type Grid struct {
	M      *mesh.Mesh
	GLL    *GLL
	Radius float64 // sphere radius (m)
	Omega  float64 // rotation rate (1/s); Coriolis f = 2*Omega*sin(lat)

	Np int // GLL points per element edge

	// Per GLL point, element-major:
	PosF     []mesh.Vec3 // position on the sphere of radius Radius
	EaF, EbF []mesh.Vec3 // covariant basis vectors d(Pos)/d(alpha), d(Pos)/d(beta)
	SqrtGF   []float64   // area Jacobian sqrt(det g)
	// Covariant metric g_ij = e_i.e_j and its inverse g^ij.
	G11F, G12F, G22F    []float64
	GI11F, GI12F, GI22F []float64
	CorF                []float64 // Coriolis parameter f = 2*Omega*z/Radius

	// RSqrtGF is the precomputed reciprocal 1/SqrtGF, element-major. The RHS
	// hot loops multiply by it instead of dividing by the Jacobian (a ~14
	// cycle divide per point otherwise); both the sequential and parallel
	// paths use it, so they stay bitwise identical to each other.
	RSqrtGF []float64

	// MassF is the precomputed quadrature mass of every point:
	// w_a * w_b * sqrtG * (DAlpha/2)^2, element-major. MassWeight reads it.
	MassF []float64

	// DAlpha is the angular width of one element, pi/2 / Ne. The GLL
	// reference derivative d/dxi converts to d/dalpha via 2/DAlpha.
	DAlpha float64
}

// NewGrid builds the spectral element grid for a cubed-sphere with ne
// elements per face edge and polynomial degree n (np = n+1 points per edge),
// on a sphere of the given radius and rotation rate.
func NewGrid(ne, n int, radius, omega float64) (*Grid, error) {
	m, err := mesh.New(ne)
	if err != nil {
		return nil, err
	}
	gll, err := NewGLL(n)
	if err != nil {
		return nil, err
	}
	if radius <= 0 {
		return nil, fmt.Errorf("seam: radius must be positive, got %v", radius)
	}
	g := &Grid{
		M:      m,
		GLL:    gll,
		Radius: radius,
		Omega:  omega,
		Np:     gll.Np(),
		DAlpha: math.Pi / 2 / float64(ne),
	}
	g.buildGeometry()
	return g, nil
}

// NumElems returns the number of spectral elements.
func (g *Grid) NumElems() int { return g.M.NumElems() }

// PointsPerElem returns Np*Np.
func (g *Grid) PointsPerElem() int { return g.Np * g.Np }

// elemAngles returns the equiangular coordinates (alpha, beta) of GLL point
// (a, b) of element e.
func (g *Grid) elemAngles(e mesh.ElemID, a, b int) (alpha, beta float64) {
	el := g.M.Elem(e)
	a0 := -math.Pi/4 + g.DAlpha*float64(el.I)
	b0 := -math.Pi/4 + g.DAlpha*float64(el.J)
	alpha = a0 + g.DAlpha*(g.GLL.Points[a]+1)/2
	beta = b0 + g.DAlpha*(g.GLL.Points[b]+1)/2
	return alpha, beta
}

// pointAndBasis evaluates the sphere position and the covariant basis
// vectors dP/dalpha, dP/dbeta of face f at equiangular coordinates
// (alpha, beta), scaled to the grid's radius.
func (g *Grid) pointAndBasis(f mesh.Face, alpha, beta float64) (p, ea, eb mesh.Vec3) {
	x := math.Tan(alpha)
	y := math.Tan(beta)
	c := mesh.CubePoint(f, x, y)
	r := c.Norm()
	p = c.Scale(g.Radius / r)
	// dC/dalpha = (1+x^2) * u, dC/dbeta = (1+y^2) * v where (u, v) is the
	// face frame; dP/ds = R * (C'/r - C (C.C')/r^3).
	u := mesh.CubePoint(f, 1, 0).Sub(mesh.CubePoint(f, 0, 0)) // frame u axis
	v := mesh.CubePoint(f, 0, 1).Sub(mesh.CubePoint(f, 0, 0)) // frame v axis
	dca := u.Scale(1 + x*x)
	dcb := v.Scale(1 + y*y)
	proj := func(dc mesh.Vec3) mesh.Vec3 {
		return dc.Scale(1 / r).Sub(c.Scale(c.Dot(dc) / (r * r * r))).Scale(g.Radius)
	}
	return p, proj(dca), proj(dcb)
}

// viewsOver carves per-element subslice views over the flat slab. The views
// keep the slab's full capacity so Slab can recover the contiguous backing
// from the first view.
func viewsOver(flat []float64, k, npts int) [][]float64 {
	out := make([][]float64, k)
	for e := range out {
		out[e] = flat[e*npts : (e+1)*npts]
	}
	return out
}

// buildGeometry fills every per-point geometric slab.
func (g *Grid) buildGeometry() {
	k := g.NumElems()
	npts := g.PointsPerElem()
	n := k * npts
	g.PosF, g.EaF, g.EbF = make([]mesh.Vec3, n), make([]mesh.Vec3, n), make([]mesh.Vec3, n)
	for _, slab := range []*[]float64{&g.SqrtGF, &g.RSqrtGF, &g.G11F, &g.G12F, &g.G22F, &g.GI11F, &g.GI12F, &g.GI22F, &g.CorF} {
		*slab = make([]float64, n)
	}

	for e := 0; e < k; e++ {
		id := mesh.ElemID(e)
		f := g.M.Elem(id).Face
		for b := 0; b < g.Np; b++ {
			for a := 0; a < g.Np; a++ {
				i := e*npts + b*g.Np + a
				alpha, beta := g.elemAngles(id, a, b)
				p, ea, eb := g.pointAndBasis(f, alpha, beta)
				g.PosF[i], g.EaF[i], g.EbF[i] = p, ea, eb
				g11 := ea.Dot(ea)
				g12 := ea.Dot(eb)
				g22 := eb.Dot(eb)
				det := g11*g22 - g12*g12
				g.G11F[i], g.G12F[i], g.G22F[i] = g11, g12, g22
				g.SqrtGF[i] = math.Sqrt(det)
				g.RSqrtGF[i] = 1 / g.SqrtGF[i]
				g.GI11F[i] = g22 / det
				g.GI12F[i] = -g12 / det
				g.GI22F[i] = g11 / det
				g.CorF[i] = 2 * g.Omega * p.Z / g.Radius // rotation about +Z
			}
		}
	}
	g.buildMass()
}

// buildMass precomputes the quadrature mass of every GLL point into MassF
// (exactly the expression MassWeight evaluates, so values are bitwise
// identical to computing it on the fly).
func (g *Grid) buildMass() {
	np := g.Np
	npts := np * np
	g.MassF = make([]float64, g.NumElems()*npts)
	for e := 0; e < g.NumElems(); e++ {
		for b := 0; b < np; b++ {
			for a := 0; a < np; a++ {
				i := e*npts + b*np + a
				g.MassF[i] = g.GLL.Wts[a] * g.GLL.Wts[b] * g.SqrtGF[i] * (g.DAlpha / 2) * (g.DAlpha / 2)
			}
		}
	}
}

// SetRotationAxis re-evaluates the Coriolis parameter for a planet rotating
// about the given axis: f = 2*Omega*(p.axis)/Radius. The default axis is +Z;
// the rotated Williamson test cases tilt it together with the flow. The axis
// is normalised first; a zero axis is an error and leaves the grid unchanged.
func (g *Grid) SetRotationAxis(axis mesh.Vec3) error {
	n, err := axis.Normalize()
	if err != nil {
		return fmt.Errorf("seam: rotation axis: %w", err)
	}
	for i, p := range g.PosF {
		g.CorF[i] = 2 * g.Omega * p.Dot(n) / g.Radius
	}
	return nil
}

// Field allocates a scalar field on the grid: one value per GLL point per
// element, stored as [K][Np*Np] views over one contiguous element-major
// slab (use Slab to recover the backing).
func (g *Grid) Field() [][]float64 {
	_, views := g.FieldSlab()
	return views
}

// FieldSlab allocates a scalar field and returns both the contiguous
// element-major backing slab (length K*Np*Np; point (e, idx) at offset
// e*Np*Np+idx) and the per-element subslice views over it.
func (g *Grid) FieldSlab() (flat []float64, views [][]float64) {
	k := g.NumElems()
	npts := g.PointsPerElem()
	flat = make([]float64, k*npts)
	return flat, viewsOver(flat, k, npts)
}

// Slab returns the contiguous element-major backing of a field whose
// per-element views all alias one flat allocation (as produced by Field or
// FieldSlab), or nil if the views are not a single contiguous block.
func (g *Grid) Slab(q [][]float64) []float64 {
	k := g.NumElems()
	npts := g.PointsPerElem()
	if len(q) != k || k == 0 || len(q[0]) != npts || cap(q[0]) < k*npts {
		return nil
	}
	flat := q[0][:k*npts]
	for e := 1; e < k; e++ {
		if len(q[e]) != npts || &q[e][0] != &flat[e*npts] {
			return nil
		}
	}
	return flat
}

// mustSlab is Slab for the entry points that only run on slab-backed
// fields: it panics on per-element rows allocated one by one.
func (g *Grid) mustSlab(q [][]float64) []float64 {
	flat := g.Slab(q)
	if flat == nil {
		panic("seam: field is not backed by one contiguous slab; allocate it with Grid.Field or Grid.FieldSlab")
	}
	return flat
}

// DiffAlpha computes the alpha-derivative of the element field u (length
// Np*Np) into du, in physical angle units (1/radian). All derivative entry
// points route to the shared micro-kernels in kernels.go (with the Np = 8
// production order fully unrolled), so every caller — sequential solver,
// parallel runner, diagnostics — computes bitwise identical values.
func (g *Grid) DiffAlpha(u, du []float64) {
	scale := 2 / g.DAlpha
	if g.Np == 8 {
		diffAlpha8(g.GLL.D, u, du, scale)
		return
	}
	diffAlphaGeneric(g.Np, g.GLL.Dt, u, du, scale)
}

// DiffBeta computes the beta-derivative of the element field u into du, in
// physical angle units. Implemented as row-axpy accumulation (unit stride)
// rather than strided dot products; every output point receives its terms in
// ascending j, so the generic and specialized kernels agree bitwise.
func (g *Grid) DiffBeta(u, du []float64) {
	scale := 2 / g.DAlpha
	if g.Np == 8 {
		diffBeta8(g.GLL.D, u, du, scale)
		return
	}
	diffBetaGeneric(g.Np, g.GLL.D, u, du, scale)
}

// DiffAlphaBeta computes both the alpha- and beta-derivatives of the element
// field u (length Np*Np) into dua and dub in one fused call. It invokes the
// same kernels as DiffAlpha/DiffBeta, so the fused and separate forms are
// bitwise identical by construction.
func (g *Grid) DiffAlphaBeta(u, dua, dub []float64) {
	scale := 2 / g.DAlpha
	if g.Np == 8 {
		diffAlpha8(g.GLL.D, u, dua, scale)
		diffBeta8(g.GLL.D, u, dub, scale)
		return
	}
	diffAlphaGeneric(g.Np, g.GLL.Dt, u, dua, scale)
	diffBetaGeneric(g.Np, g.GLL.D, u, dub, scale)
}

// MassWeight returns the quadrature mass of GLL point (a, b) of element e:
// w_a * w_b * sqrtG (the local contribution to the global mass matrix),
// read from the precomputed MassF slab.
func (g *Grid) MassWeight(e int, a, b int) float64 {
	return g.MassF[e*g.Np*g.Np+b*g.Np+a]
}

// Integrate returns the integral of field q over the whole sphere using GLL
// quadrature. q must be slab-backed (see Field).
func (g *Grid) Integrate(q [][]float64) float64 { return g.integrate(g.mustSlab(q)) }

// integrate is Integrate on a flat element-major slab.
func (g *Grid) integrate(flat []float64) float64 {
	var sum float64
	for i, v := range flat {
		sum += v * g.MassF[i]
	}
	return sum
}
