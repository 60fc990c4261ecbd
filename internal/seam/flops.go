package seam

// Floating-point operation accounting. The machine performance model
// (package machine) converts element counts into execution time through
// these per-element costs, so they are kept in one place and covered by
// tests that compare them against the actual arithmetic in the solvers.

// diffFlops is the cost of one spectral derivative of one element field:
// Np rows of Np dot products of length Np (a multiply and an add each) plus
// the chain-rule scaling.
func diffFlops(np int) int64 {
	n := int64(np)
	return n*n*(2*n) + n*n
}

// rhsFlopsShallowWater counts the flops of one shallow-water
// right-hand-side evaluation over k elements: six spectral derivatives
// (vorticity 2, energy gradient 2, divergence 2) plus roughly 30 pointwise
// operations for the metric algebra per GLL point.
func rhsFlopsShallowWater(k, np int) int64 {
	perElem := 6*diffFlops(np) + int64(np*np)*30
	return int64(k) * perElem
}

// meteredStepFlops is what one RK4 step over k elements adds to
// ShallowWater.Flops, in both the sequential Step and the Runner: four RHS
// evaluations plus 3 fields x 4 stages x 4 update operations per point.
func meteredStepFlops(k, np int) int64 {
	return 4*rhsFlopsShallowWater(k, np) + int64(k)*int64(np*np)*3*4*4
}

// StepFlopsShallowWater is the total flops of one RK time step of the
// shallow-water solver per element: the number of RHS evaluations times the
// RHS cost plus the update arithmetic. Exported for the machine model.
func StepFlopsShallowWater(np int) int64 {
	const rkStages = 4
	perElem := rhsFlopsShallowWater(1, np)*rkStages + int64(np*np)*3*2*rkStages
	return perElem
}

// BoundaryExchangeBytes is the number of bytes one element sends across one
// shared boundary per exchanged field: np GLL points of 8 bytes each.
// A corner exchange moves a single point.
func BoundaryExchangeBytes(np int) int64 { return int64(np) * 8 }
