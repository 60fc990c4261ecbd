package seam

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/par"
)

// Runner executes the shallow-water model with the spectral elements
// distributed over ranks according to a partition, mimicking SEAM's MPI
// parallelisation in-process. Shared GLL nodes are averaged by a unique
// owner rank, and the bytes that would cross rank boundaries on a
// distributed machine are tallied per rank, which is exactly the
// "communication volume for a single processor" (spcv) of the paper.
//
// Scheduling: each rank's run is a fixed sequence of tasks — for every step
// and RK stage a "phase A" task (stage prologue + tendency evaluation of the
// rank's elements) and a "phase B" task (DSS assembly of the shared nodes the
// rank owns), plus one epilogue task committing the final step. Instead of
// fencing all ranks at global barriers between phases, the runner schedules
// by dependency: a rank's next task launches as soon as the specific
// neighbour ranks it exchanges DSS-plan nodes with have committed their
// side of the exchange (see runDataflow for the epoch protocol). With one
// worker there is nothing to overlap, so the runner degrades to a plain
// inline loop in phase order with zero synchronisation (runSerial).
//
// The results remain bitwise identical to sequential ShallowWater.Step at
// any worker count: all paths run the same batched kernels (stageElems,
// finishElems, applyNodeFlat) over the same per-rank element lists, and the
// dependency protocol admits exactly the inter-rank orderings in which every
// read of a neighbour's slab observes the same committed values as the
// sequential schedule.
type Runner struct {
	SW     *ShallowWater
	Assign []int32 // element -> rank
	NRanks int

	// Workers overrides the number of worker goroutines used by Run when
	// positive; the default is min(NRanks, GOMAXPROCS).
	Workers int

	elemsOf [][]int32 // rank -> owned elements
	// ownedShared[r] indexes the DSS exchange plan's shared nodes owned by
	// rank r (the rank of the node's first member element).
	ownedShared [][]int32
	// sentPerApply[r] is the number of bytes rank r sends in one DSS
	// application of one field.
	sentPerApply []int64

	// Dependency graph of the epoch scheduler, derived from the DSS exchange
	// plan in NewRunner. depsA[m] lists the ranks whose phase-B commit rank
	// m's phase-A tasks wait on: the owners of shared nodes with a member
	// point among m's elements (they write the averaged tendencies m's next
	// stage reads). depsB[o] lists the ranks whose phase-A commit rank o's
	// phase-B tasks wait on: the member ranks of the nodes o owns (they
	// write the tendencies o assembles). revDeps is the reverse union — the
	// ranks to re-examine after one of rk's tasks commits. Self-edges are
	// excluded: a rank's own tasks are ordered by its task sequence.
	depsA, depsB, revDeps [][]int32

	// BusyTime holds per-rank compute time of the most recent Run call only:
	// Run resets it on entry, so busy/wall efficiency ratios are
	// well-defined even after warm-up runs. Sum across calls yourself if you
	// need a cumulative figure.
	//
	// Contract: busy time excludes scheduler wait time. Every span is
	// measured around a task body only (prologue+RHS, DSS assembly, or the
	// step epilogue); the time a worker spends parked waiting for a
	// dependency to commit happens between tasks, outside every span, and is
	// metered separately into the seam_epoch_wait_ns histogram. There is no
	// global barrier under the dependency-driven scheduler, so this is the
	// only wait there is. TestBusyTimeExcludesWait locks the contract.
	//
	// BusyTime is owned by the worker goroutines while a run is in
	// flight: reading it mid-run is a data race and can observe torn,
	// mid-stage values. Concurrent observers must use Snapshot, which
	// reads the atomically published step-boundary copies instead.
	BusyTime []time.Duration

	// testOnTask, when non-nil, is invoked by the dataflow scheduler
	// immediately before each task executes, with the task's rank, its
	// position in the rank's task sequence, and the dependency check
	// recomputed at call time — the probe the epoch-counter stress test
	// uses to prove no task ever runs before its dependencies committed.
	// Test-only; must not mutate runner state.
	testOnTask func(rk int32, pos int64, depsMet bool)

	// runnerObsState carries the observability attachment (Instrument)
	// and the atomically published step-boundary meters (Snapshot).
	runnerObsState
}

// NewRunner distributes the elements of sw over nranks ranks following
// assign (element id -> rank). Malformed configurations are rejected up
// front with typed errors: AssignLengthError when assign does not cover the
// grid, RankRangeError when any element names a rank outside [0, nranks),
// and EmptyRankError when a rank ends up owning no elements.
func NewRunner(sw *ShallowWater, assign []int32, nranks int) (*Runner, error) {
	k := sw.G.NumElems()
	if len(assign) != k {
		return nil, &AssignLengthError{Got: len(assign), Want: k}
	}
	if nranks < 1 {
		return nil, fmt.Errorf("seam: nranks must be >= 1, got %d", nranks)
	}
	r := &Runner{
		SW: sw, Assign: assign, NRanks: nranks,
		elemsOf:      make([][]int32, nranks),
		ownedShared:  make([][]int32, nranks),
		sentPerApply: make([]int64, nranks),
		BusyTime:     make([]time.Duration, nranks),
	}
	for e, rk := range assign {
		if rk < 0 || int(rk) >= nranks {
			return nil, &RankRangeError{Elem: e, Rank: rk, NRanks: nranks}
		}
		r.elemsOf[rk] = append(r.elemsOf[rk], int32(e))
	}
	var empty []int
	for rk, es := range r.elemsOf {
		if len(es) == 0 {
			empty = append(empty, rk)
		}
	}
	if len(empty) > 0 {
		return nil, &EmptyRankError{Ranks: empty, NRanks: nranks}
	}
	npts := sw.G.PointsPerElem()
	depsA := make([]map[int32]bool, nranks)
	depsB := make([]map[int32]bool, nranks)
	addDep := func(sets []map[int32]bool, from, to int32) {
		if sets[from] == nil {
			sets[from] = make(map[int32]bool)
		}
		sets[from][to] = true
	}
	for s := 0; s < sw.Dss.NumSharedNodes(); s++ {
		pts := sw.Dss.members(s)
		owner := assign[int(pts[0])/npts]
		r.ownedShared[owner] = append(r.ownedShared[owner], int32(s))
		for _, p := range pts {
			member := assign[int(p)/npts]
			if member != owner {
				// The member sends its contribution to the owner and the
				// owner sends the assembled value back: 8 bytes each way.
				r.sentPerApply[member] += 8
				r.sentPerApply[owner] += 8
				// The same exchange is the dependency edge pair of the
				// epoch scheduler.
				addDep(depsB, owner, member)
				addDep(depsA, member, owner)
			}
		}
	}
	rev := make([]map[int32]bool, nranks)
	for _, sets := range [][]map[int32]bool{depsA, depsB} {
		for m, set := range sets {
			for n := range set {
				addDep(rev, n, int32(m))
			}
		}
	}
	flatten := func(sets []map[int32]bool) [][]int32 {
		out := make([][]int32, nranks)
		for rk, set := range sets {
			for n := range set {
				out[rk] = append(out[rk], n)
			}
			slices.Sort(out[rk])
		}
		return out
	}
	r.depsA, r.depsB, r.revDeps = flatten(depsA), flatten(depsB), flatten(rev)
	// Precompute the per-step meter increments so step-boundary
	// publication is pure atomic arithmetic.
	r.published = make([]atomic.Int64, nranks)
	r.flopsPerStep = meteredStepFlops(k, sw.G.Np)
	for _, b := range r.sentPerApply {
		r.totalBytesPerStep += b * 4 * 3
	}
	return r, nil
}

// NumOwned returns the number of elements owned by each rank.
func (r *Runner) NumOwned() []int {
	out := make([]int, r.NRanks)
	for rk, es := range r.elemsOf {
		out[rk] = len(es)
	}
	return out
}

// Owned returns the element ids owned by rank rk, in ascending order. The
// slice is owned by the runner; callers must not modify it. Fault injectors
// use it to target a specific rank's state deterministically.
func (r *Runner) Owned(rk int) []int32 { return r.elemsOf[rk] }

// BytesPerStep returns, per rank, the communication bytes of one full RK4
// time step: 4 stages x 3 prognostic fields x one DSS application.
func (r *Runner) BytesPerStep() []int64 {
	out := make([]int64, r.NRanks)
	for rk, b := range r.sentPerApply {
		out[rk] = b * 4 * 3
	}
	return out
}

// applyRank performs rank rk's portion of a DSS application on the field
// slab q: assembling the shared nodes it owns through the precomputed
// exchange plan. The epoch scheduler (or the serial phase order) guarantees
// all member tendencies are written before and no member reads the node
// until after.
func (r *Runner) applyRank(q []float64, rk int) {
	d := r.SW.Dss
	for _, s := range r.ownedShared[rk] {
		d.applyNodeFlat(q, s)
	}
}

// applyVectorRank performs rank rk's portion of a covariant-vector DSS
// application (see DSS.ApplyVector) for the shared nodes it owns.
func (r *Runner) applyVectorRank(v1, v2 []float64, rk int) {
	d := r.SW.Dss
	for _, s := range r.ownedShared[rk] {
		d.applyVectorNodeFlat(v1, v2, s)
	}
}

// Run advances the model by the given number of RK4 steps of size dt with
// the ranks executed concurrently by a capped worker pool, and returns the
// wall-clock time of the parallel section. The result is bitwise identical
// to the same number of sequential ShallowWater.Step calls.
//
// BusyTime is reset at the start of every call and, on return, holds each
// rank's compute time for this call only.
func (r *Runner) Run(steps int, dt float64) time.Duration {
	d, _ := r.runSteps(nil, steps, dt)
	return d
}

// RunCtx is Run with cancellation, fault-injection hooks, and worker panic
// recovery — the entry point of the resilience layer (see
// internal/resilience). It advances the model by steps RK4 steps of size dt
// and is bitwise identical to Run when it completes without error.
//
//   - If ctx is cancelled or its deadline expires mid-run, the parallel
//     section is aborted and a *TimeoutError (unwrapping to ctx.Err()) is
//     returned, listing the ranks whose work was in flight — under a rank
//     stall, the stalled rank is among them.
//   - If a worker goroutine panics while executing a rank (including inside
//     an injected hook), the panic is recovered into a *RankPanicError with
//     step/stage/rank attribution and the remaining workers are released.
//   - hooks, when non-nil, is invoked by the owning worker at defined points
//     of the schedule; see StepHooks.
//
// On a non-nil error the prognostic state may be torn across ranks (some
// ranks committed further than others); callers are expected to roll back
// to a checkpoint before resuming.
func (r *Runner) RunCtx(ctx context.Context, steps int, dt float64, hooks *StepHooks) (time.Duration, error) {
	ctl := &runControl{ctx: ctx, hooks: hooks}
	if err := ctx.Err(); err != nil {
		return 0, &TimeoutError{Cause: err}
	}
	return r.runSteps(ctl, steps, dt)
}

// StepHooks are optional callbacks threaded through RunCtx for fault
// injection and instrumentation. All callbacks run on the worker goroutine
// that owns the rank at that moment, so they may freely touch the rank's
// own element blocks (and nothing else) without racing the other ranks.
type StepHooks struct {
	// BeforeRankStage runs before rank's element-local prologue + RHS of
	// the given RK stage (0..3) of the given step (0-based within this
	// call). A panic raised here is attributed to the rank; sleeping here
	// simulates a stalled rank.
	BeforeRankStage func(step, stage, rank int)
}

// runControl carries the cancellation/recovery state of one RunCtx call.
// A nil *runControl (the plain Run path) compiles to a handful of
// predictable nil checks in the hot loops.
type runControl struct {
	ctx   context.Context
	hooks *StepHooks

	stop    atomic.Bool
	errMu   sync.Mutex
	err     error
	working []atomic.Int64 // per-worker packed RankPos, -1 when idle
	cur     []RankPos      // per-worker last claimed position (panic attribution)
}

func (c *runControl) stopped() bool { return c != nil && c.stop.Load() }

// fail records the first error and flags the run as stopping. It returns
// true for the caller that won the race (and should release the scheduler).
func (c *runControl) fail(err error) bool {
	c.errMu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	c.errMu.Unlock()
	c.stop.Store(true)
	return first
}

func (c *runControl) firstErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// packPos encodes (step, stage, rank) into one int64: rank < 2^24 (K is at
// most a few thousand), stage < 4, step < 2^32.
func packPos(step, stage, rank int) int64 {
	return int64(step)<<28 | int64(stage)<<24 | int64(rank)
}

func unpackPos(p int64) RankPos {
	return RankPos{Rank: int(p & 0xffffff), Stage: int(p >> 24 & 0xf), Step: int(p >> 28)}
}

// inFlight snapshots the ranks currently claimed by workers, sorted by rank.
func (c *runControl) inFlight() []RankPos {
	var out []RankPos
	for i := range c.working {
		if p := c.working[i].Load(); p >= 0 {
			out = append(out, unpackPos(p))
		}
	}
	sortRankPos(out)
	return out
}

// Task positions. A rank's run is the fixed sequence
//
//	p = step*8 + stage*2 + phase   (phase A = 0, phase B = 1)
//
// for step in [0, steps) and stage in [0, 4), plus the epilogue at
// p = steps*8. commit[rk] counts rank rk's completed tasks, so it IS the
// rank's next task position.
func posStep(p int64) int  { return int(p >> 3) }
func posStage(p int64) int { return int(p>>1) & 3 }

// taskStage is one rank's phase-A task of (step s, stage st): the optional
// fault-injection hook, then — inside the busy span — the previous step's
// epilogue when entering stage 0 (folding it into the next touch of the
// same slabs), and the fused stage prologue + RHS (stageElems) on the
// rank's own element blocks.
func (r *Runner) taskStage(ctl *runControl, w, s, st int, rk int32, dt float64, scr *rhsScratch, stageB *[4]*obs.HistogramBatch) {
	if ctl != nil {
		ctl.cur[w] = RankPos{Rank: int(rk), Step: s, Stage: st}
		ctl.working[w].Store(packPos(s, st, int(rk)))
		if ctl.hooks != nil && ctl.hooks.BeforeRankStage != nil {
			ctl.hooks.BeforeRankStage(s, st, int(rk))
		}
	}
	sw := r.SW
	busy := time.Now()
	if st == 0 && s > 0 {
		sw.finishElems(r.elemsOf[rk], dt)
	}
	sw.stageElems(r.elemsOf[rk], st, dt, scr)
	d := time.Since(busy)
	r.BusyTime[rk] += d
	stageB[st].Observe(d.Nanoseconds())
	if r.trace != nil {
		r.trace.Record(obs.Event{Kind: obs.EvStage, Step: int32(s), Stage: int8(st), Rank: rk, Dur: d.Nanoseconds()})
	}
	if ctl != nil {
		ctl.working[w].Store(-1)
	}
}

// taskDSS is one rank's phase-B task of (step s, stage st): DSS assembly of
// the shared nodes the rank owns, on the three tendency slabs.
func (r *Runner) taskDSS(ctl *runControl, w, s, st int, rk int32, dssB *obs.HistogramBatch) {
	if ctl != nil {
		ctl.cur[w] = RankPos{Rank: int(rk), Step: s, Stage: st}
	}
	sw := r.SW
	busy := time.Now()
	r.applyVectorRank(sw.k1v1F, sw.k1v2F, int(rk))
	r.applyRank(sw.k1pF, int(rk))
	d := time.Since(busy)
	r.BusyTime[rk] += d
	dssB.Observe(d.Nanoseconds())
	if r.trace != nil {
		r.trace.Record(obs.Event{Kind: obs.EvDSS, Step: int32(s), Stage: int8(st), Rank: rk, Dur: d.Nanoseconds(), Arg: r.sentPerApply[rk] * 3})
	}
}

// taskFinish is rank rk's epilogue task: committing the final step's
// accumulated state to the prognostic slabs.
func (r *Runner) taskFinish(ctl *runControl, w, steps int, dt float64, rk int32) {
	if ctl != nil {
		ctl.cur[w] = RankPos{Rank: int(rk), Step: steps - 1, Stage: 3}
	}
	busy := time.Now()
	r.SW.finishElems(r.elemsOf[rk], dt)
	r.BusyTime[rk] += time.Since(busy)
}

// runSteps is the shared body of Run and RunCtx; ctl is nil on the plain
// Run path.
func (r *Runner) runSteps(ctl *runControl, steps int, dt float64) (time.Duration, error) {
	for i := range r.BusyTime {
		r.BusyTime[i] = 0
	}
	if steps <= 0 {
		return 0, nil
	}

	nw := r.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > r.NRanks {
		nw = r.NRanks
	}
	if ctl != nil {
		ctl.working = make([]atomic.Int64, nw)
		for i := range ctl.working {
			ctl.working[i].Store(-1)
		}
		ctl.cur = make([]RankPos, nw)
	}

	start := time.Now()
	var err error
	if nw == 1 {
		err = r.runSerial(ctl, steps, dt)
	} else {
		err = r.runDataflow(ctl, nw, steps, dt)
	}
	elapsed := time.Since(start)
	// The epilogue added busy time after the last step boundary; publish
	// the completed figures (single-threaded here).
	r.publishBusy()
	if err != nil {
		// The parallel section was aborted part-way: the prognostic slabs
		// may be torn across ranks and the flop meter would lie, so skip it
		// and surface the typed cause.
		return elapsed, err
	}
	// Meter the work exactly as the sequential Step does (the runner
	// performs the same arithmetic, just distributed).
	r.SW.Flops += int64(steps) * r.flopsPerStep
	return elapsed, nil
}

// runSerial executes every rank inline on the calling goroutine in the
// fixed phase order — all ranks' phase A, then all ranks' phase B, for each
// stage of each step. With one worker there is nothing to overlap, so the
// run carries zero scheduling overhead beyond per-task spans: no barriers,
// no queues, no extra goroutines (the cancellation watchdog aside). The
// task bodies are shared with the dataflow path, so the arithmetic is
// identical by construction.
func (r *Runner) runSerial(ctl *runControl, steps int, dt float64) error {
	var watchDone chan struct{}
	if ctl != nil {
		watchDone = make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctl.ctx.Done():
				// The inline loop cannot be interrupted mid-task (a stalled
				// hook keeps its task); it notices ctl.stopped() at the next
				// task boundary.
				ctl.fail(&TimeoutError{InFlight: ctl.inFlight(), Cause: ctl.ctx.Err()})
			case <-watchDone:
			}
		}()
	}
	stageB, dssB := r.metrics.workerBatches()
	flush := func() {
		for _, b := range stageB {
			b.Flush()
		}
		dssB.Flush()
	}
	defer flush()
	scr := newRHSScratch(r.SW.G.PointsPerElem())
	nRanks := int32(r.NRanks)
	body := func() error {
		for s := 0; s < steps; s++ {
			for st := 0; st < 4; st++ {
				for rk := int32(0); rk < nRanks; rk++ {
					if ctl.stopped() {
						return ctl.firstErr()
					}
					r.taskStage(ctl, 0, s, st, rk, dt, scr, &stageB)
				}
				for rk := int32(0); rk < nRanks; rk++ {
					if ctl.stopped() {
						return ctl.firstErr()
					}
					r.taskDSS(ctl, 0, s, st, rk, dssB)
				}
			}
			// Step boundary: fold the local histogram spans and publish the
			// per-rank meters so step-boundary scrapes see complete figures.
			flush()
			r.publishBusy()
			r.publishStepShared(s)
		}
		for rk := int32(0); rk < nRanks; rk++ {
			if ctl.stopped() {
				return ctl.firstErr()
			}
			r.taskFinish(ctl, 0, steps, dt, rk)
		}
		return nil
	}
	if ctl == nil {
		return body()
	}
	return r.guardSerial(ctl, body)
}

// guardSerial runs the serial loop with the same panic recovery the
// dataflow workers have: a panic inside a rank's task (including an
// injected hook) is recovered into a RankPanicError attributed to the last
// claimed position.
func (r *Runner) guardSerial(ctl *runControl, body func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			cur := ctl.cur[0]
			ctl.fail(&RankPanicError{Step: cur.Step, Stage: cur.Stage, Rank: cur.Rank, Value: v})
			ctl.working[0].Store(-1)
			err = ctl.firstErr()
		}
	}()
	if e := body(); e != nil {
		return e
	}
	return ctl.firstErr()
}

// dfExec is the state of one dataflow (epoch-scheduled) run.
//
// Epoch protocol. commit[rk] is the number of tasks rank rk has completed —
// its epoch. A task at position p is ready iff every dependency rank n
// (depsA for phase A and the epilogue, depsB for phase B) has commit[n] >= p,
// i.e. has finished its own task at position p-1. Stores to commit are the
// release side and loads in ready() the acquire side of the protocol (Go's
// sync/atomic is sequentially consistent, which is stronger): a worker that
// observes commit[n] >= p also observes every slab write of n's first p
// tasks, so no stage ever reads a neighbour slab before its commit.
//
// Wakeups. state[rk] is 0 (idle) or 1 (enqueued or running); at most one
// queue entry or executing worker per rank exists at any time. Whoever
// commits a task re-examines the reverse dependencies: tryEnqueue loads the
// dependant's epoch, checks readiness, and CASes state 0->1 before pushing.
// A worker that finds its rank's next task not ready releases it Dekker
// style — store state 0, re-check readiness, re-enqueue on success — so the
// symmetric race (neighbour commits between the worker's last check and its
// release; worker parks between the neighbour's failed CAS and the store)
// cannot lose the wakeup: under sequential consistency one of the two
// re-checks must observe the other side's store. Stale epoch reads can still
// enqueue a rank spuriously, so the popping worker revalidates readiness
// before executing.
//
// Deadlock freedom. Let pmin be the minimum epoch over all ranks. Any rank
// at pmin is ready (all its dependencies have epoch >= pmin), so a runnable
// task always exists until the run completes; the wakeup argument above
// guarantees some worker learns of it.
type dfExec struct {
	r         *Runner
	ctl       *runControl
	steps     int
	dt        float64
	lastPos   int64 // steps*8, the epilogue position
	total     int64 // NRanks * (steps*8 + 1) tasks overall
	commit    []atomic.Int64
	state     []atomic.Int32
	ranksLeft []atomic.Int32 // per step: ranks that have not committed it
	done      atomic.Int64
	q         *par.WakeQueue
}

func (d *dfExec) ready(rk int32, p int64) bool {
	deps := d.r.depsA[rk]
	if p&1 == 1 {
		deps = d.r.depsB[rk]
	}
	for _, n := range deps {
		if d.commit[n].Load() < p {
			return false
		}
	}
	return true
}

// tryEnqueue wakes rank rk if its next task is ready and the rank is not
// already enqueued or running.
func (d *dfExec) tryEnqueue(rk int32) {
	p := d.commit[rk].Load()
	if p > d.lastPos || !d.ready(rk, p) {
		return
	}
	if d.state[rk].CompareAndSwap(0, 1) {
		d.q.Push(rk)
	}
}

// release marks rank rk idle at position p and re-checks readiness (the
// Dekker re-check described on dfExec): a dependency may have committed
// concurrently and lost its tryEnqueue CAS against our still-held state.
func (d *dfExec) release(rk int32, p int64) {
	d.state[rk].Store(0)
	if d.ready(rk, p) && d.state[rk].CompareAndSwap(0, 1) {
		d.q.Push(rk)
	}
}

// exec dispatches the task at position p of rank rk.
func (d *dfExec) exec(w int, rk int32, p int64, scr *rhsScratch, stageB *[4]*obs.HistogramBatch, dssB *obs.HistogramBatch) {
	r := d.r
	if p == d.lastPos {
		r.taskFinish(d.ctl, w, d.steps, d.dt, rk)
		return
	}
	s, st := posStep(p), posStage(p)
	if p&1 == 0 {
		r.taskStage(d.ctl, w, s, st, rk, d.dt, scr, stageB)
	} else {
		r.taskDSS(d.ctl, w, s, st, rk, dssB)
	}
}

// runWorker drains ready ranks from the wake queue, running each popped
// rank's tasks consecutively for as long as they stay ready (the common
// case: a rank's phase B usually unblocks its own next phase A), and parks
// when no rank is ready. Parked time is the epoch wait: it is recorded
// against the task that ends the wait, with real step/stage attribution.
func (d *dfExec) runWorker(w int) {
	r := d.r
	ctl := d.ctl
	if ctl != nil {
		defer func() {
			if v := recover(); v != nil {
				cur := ctl.cur[w]
				if ctl.fail(&RankPanicError{Step: cur.Step, Stage: cur.Stage, Rank: cur.Rank, Value: v}) {
					d.q.Close()
				}
				ctl.working[w].Store(-1)
			}
		}()
	}
	stageB, dssB := r.metrics.workerBatches()
	flush := func() {
		for _, b := range stageB {
			b.Flush()
		}
		dssB.Flush()
	}
	defer flush()
	scr := newRHSScratch(r.SW.G.PointsPerElem())
	measure := r.obsActive()
	for {
		// Fold local histogram spans before (possibly) parking so scrapes
		// during an idle spell see this worker's completed spans.
		flush()
		rk, wait, ok := d.q.Pop(measure)
		if !ok {
			return
		}
		p := d.commit[rk].Load()
		if measure && wait > 0 {
			r.metrics.observeWait(wait)
			if tr := r.trace; tr != nil && !tr.Deterministic {
				// Waits are schedule-shaped (they depend on worker count and
				// timing), so they are omitted from deterministic traces.
				step, stage := posStep(p), posStage(p)
				if p >= d.lastPos {
					step, stage = d.steps-1, 3
				}
				tr.Record(obs.Event{Kind: obs.EvWait, Step: int32(step), Stage: int8(stage), Rank: rk, Dur: wait.Nanoseconds(), Arg: int64(w)})
			}
		}
		// Revalidate: a stale epoch read in tryEnqueue can wake a rank
		// whose dependencies have not actually committed yet.
		if !d.ready(rk, p) {
			d.release(rk, p)
			continue
		}
		for {
			if ctl.stopped() {
				return
			}
			if r.testOnTask != nil {
				r.testOnTask(rk, p, d.ready(rk, p))
			}
			d.exec(w, rk, p, scr, &stageB, dssB)
			d.commit[rk].Store(p + 1)
			if p&7 == 7 {
				// Rank rk finished step p>>3: publish its meters and, when
				// it is the last rank through, the step-shared ones.
				r.publishRank(rk)
				if s := int(p >> 3); d.ranksLeft[s].Add(-1) == 0 {
					flush()
					r.publishStepShared(s)
				}
			}
			if d.done.Add(1) == d.total {
				d.q.Close()
				return
			}
			for _, n := range r.revDeps[rk] {
				d.tryEnqueue(n)
			}
			p++
			if p > d.lastPos {
				// Rank finished; state stays 1 so it is never re-enqueued.
				break
			}
			if !d.ready(rk, p) {
				d.release(rk, p)
				break
			}
		}
	}
}

// runDataflow executes the run under the epoch scheduler with nw workers.
func (r *Runner) runDataflow(ctl *runControl, nw, steps int, dt float64) error {
	d := &dfExec{
		r: r, ctl: ctl, steps: steps, dt: dt,
		lastPos:   int64(steps) * 8,
		total:     int64(r.NRanks) * (int64(steps)*8 + 1),
		commit:    make([]atomic.Int64, r.NRanks),
		state:     make([]atomic.Int32, r.NRanks),
		ranksLeft: make([]atomic.Int32, steps),
		q:         par.NewWakeQueue(r.NRanks),
	}
	for s := range d.ranksLeft {
		d.ranksLeft[s].Store(int32(r.NRanks))
	}
	// Seed: every rank's position-0 task (phase A of step 0) has no
	// uncommitted dependencies, so all ranks start enqueued.
	for rk := 0; rk < r.NRanks; rk++ {
		d.state[rk].Store(1)
		d.q.Push(int32(rk))
	}
	// Cancellation watchdog: parked workers cannot poll the context, so a
	// dedicated goroutine converts ctx expiry into a queue close, which
	// releases every parked worker; running workers notice ctl.stopped()
	// at their next task boundary.
	var watchDone chan struct{}
	if ctl != nil {
		watchDone = make(chan struct{})
		go func() {
			select {
			case <-ctl.ctx.Done():
				ctl.fail(&TimeoutError{InFlight: ctl.inFlight(), Cause: ctl.ctx.Err()})
				d.q.Close()
			case <-watchDone:
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.runWorker(w)
		}(w)
	}
	wg.Wait()
	if watchDone != nil {
		close(watchDone)
	}
	if ctl != nil {
		return ctl.firstErr()
	}
	return nil
}
