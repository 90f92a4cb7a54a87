package datalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Resource governance for the compiled executors. Every hot loop in this
// package — the plan candidate loops (compile.go), the semi-naive fixpoint
// rounds (compileprog.go) and the IVM maintenance rounds (ivm.go) — can
// run under an evalGuard: a per-goroutine view of a shared guardState that
// amortizes cancellation checks to one atomic load every guardInterval
// candidate rows, so a context-aware
// execution costs the same as a plain one to within noise. Budgets
// (Limits) bound result rows, derived tuples and fixpoint rounds; fixpoint
// budgets are checked at round barriers, where partial-progress stats are
// already consistent.
//
// Under a context that can never fire (context.Background()) and zero
// limits the guard is nil everywhere, which compiles to a single pointer
// test per candidate row — the ungoverned fast path is preserved
// bit-for-bit.

// ErrCanceled reports that an evaluation observed context cancellation (or
// deadline expiry) and stopped early. Match with errors.Is.
var ErrCanceled = errors.New("datalog: evaluation canceled")

// ErrBudgetExceeded reports that an evaluation exhausted an explicit
// resource budget (Limits). Match with errors.Is; the returned error wraps
// this sentinel with the specific budget that tripped.
var ErrBudgetExceeded = errors.New("datalog: evaluation budget exceeded")

// Limits bounds one evaluation. The zero value means unlimited.
type Limits struct {
	// MaxRows bounds the number of answer rows a plan evaluation may
	// produce. Enumeration aborts as soon as any single worker has emitted
	// more than MaxRows distinct rows, and the final result is checked
	// exactly.
	MaxRows int
	// MaxDerived bounds the total derived-tuple count of a fixpoint or
	// maintenance run, checked at every round barrier (the run may
	// overshoot by at most one round of derivations before stopping).
	MaxDerived int
	// MaxRounds bounds the number of semi-naive rounds of a fixpoint or
	// maintenance run.
	MaxRounds int
}

func (l Limits) zero() bool { return l.MaxRows <= 0 && l.MaxDerived <= 0 && l.MaxRounds <= 0 }

// guardInterval is how many candidate rows each worker visits between
// cancellation polls. 1<<10 keeps the poll cost well under 1% of loop time
// while bounding detection latency to microseconds.
const guardInterval = 1 << 10

// guardState is the per-evaluation cancellation state shared by all
// workers. A nil *guardState disables all checks.
type guardState struct {
	done    <-chan struct{} // context's done channel; nil when ctx can't fire
	maxRows int             // per-worker emitted-row budget; 0 = unlimited
	stopped atomic.Bool     // set once any worker trips; others stop within guardInterval rows
	mu      sync.Mutex
	err     error // first failure; guarded by mu
}

// newGuardState builds the shared state for one evaluation, or nil when
// neither the context nor the limits can ever fire — the fast path.
func newGuardState(ctx context.Context, maxRows int) *guardState {
	done := ctx.Done()
	if done == nil && maxRows <= 0 {
		return nil
	}
	return &guardState{done: done, maxRows: maxRows}
}

// trip records the first failure and tells every worker to stop.
func (gs *guardState) trip(err error) {
	gs.mu.Lock()
	if gs.err == nil {
		gs.err = err
	}
	gs.mu.Unlock()
	gs.stopped.Store(true)
}

// failure returns the first recorded failure, if any. Callers read it only
// after the workers of the current stage have joined.
func (gs *guardState) failure() error {
	if gs == nil {
		return nil
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.err
}

// barrier is the round-boundary check of the fixpoint loops: it surfaces a
// tripped failure and polls the context once per round.
func (gs *guardState) barrier() error {
	if gs == nil {
		return nil
	}
	if err := gs.failure(); err != nil {
		return err
	}
	if gs.done != nil {
		select {
		case <-gs.done:
			gs.trip(ErrCanceled)
			return ErrCanceled
		default:
		}
	}
	return nil
}

// child creates one worker's guard over the shared state. Guards are not
// goroutine-safe; every worker gets its own.
func (gs *guardState) child() *evalGuard {
	if gs == nil {
		return nil
	}
	return &evalGuard{s: gs, n: guardInterval, maxRows: gs.maxRows}
}

// evalGuard is one worker's amortized cancellation checker.
type evalGuard struct {
	s       *guardState
	n       int // rows until the next poll
	rows    int // rows emitted by this worker (MaxRows budget)
	maxRows int // copy of s.maxRows, keeping emitRow's fast path inlinable
}

// tick is called once per candidate row; it reports true when the worker
// must stop. All but one call in guardInterval is a decrement and compare —
// kept small enough to inline into the candidate loops, so a live guard
// costs about one branch per row.
func (g *evalGuard) tick() bool {
	g.n--
	if g.n > 0 {
		return false
	}
	return g.poll()
}

// poll is the once-per-guardInterval slow path of tick: one atomic load,
// and a non-blocking context check.
func (g *evalGuard) poll() bool {
	g.n = guardInterval
	if g.s.stopped.Load() {
		return true
	}
	if g.s.done != nil {
		select {
		case <-g.s.done:
			g.s.trip(ErrCanceled)
			return true
		default:
		}
	}
	return false
}

// emitRow records one distinct row produced by this worker and reports true
// when the row budget is exhausted. A single worker's distinct count is a
// lower bound on the evaluation's distinct total, so tripping here is never
// a false positive; Run re-checks the combined result exactly.
func (g *evalGuard) emitRow() bool {
	if g == nil || g.maxRows <= 0 {
		return false
	}
	g.rows++
	if g.rows <= g.maxRows {
		return false
	}
	return g.tripRows()
}

// tripRows is emitRow's slow path: record the budget failure once.
func (g *evalGuard) tripRows() bool {
	g.s.trip(fmt.Errorf("datalog: row budget of %d exceeded: %w", g.s.maxRows, ErrBudgetExceeded))
	return true
}

// ---- The entry points ----

// RunOpts configures one execution of a compiled plan or program. The zero
// value under context.Background() is the plain evaluation: sequential,
// sorted, unlimited, with nil guards all the way down.
type RunOpts struct {
	// Args binds a parameterized plan's parameters (CompileParams) in
	// declaration order. A plan panics unless len(Args) matches its
	// parameter count — an arity mismatch is a programming error, like
	// calling a function with the wrong number of arguments. Programs
	// ignore it.
	Args []string
	// Workers fans a plan's outermost candidate loop, or a fixpoint or
	// maintenance round's rule variants, across up to Workers goroutines;
	// 0 or 1 runs sequentially. Results are identical either way.
	Workers int
	// Unsorted returns a plan's distinct answers in discovery order instead
	// of sorted: callers merging several plans' results (a union) dedup
	// first and sort once. Programs ignore it.
	Unsorted bool
	// Limits bounds the execution; the zero value is unlimited.
	Limits Limits
}

// Run executes the plan over db and returns its distinct answers, sorted
// unless o.Unsorted. It never mutates db, which must not be mutated during
// the call; callers wanting indexed access paths freeze it first
// (BuildIndexes), as EvalQuery and the serving engine do — stale indexes
// degrade to scans. Evaluation stops within ~guardInterval candidate rows
// of ctx firing, returning ErrCanceled, and returns an error wrapping
// ErrBudgetExceeded when the answer set exceeds o.Limits.MaxRows; on error
// the partial rows are discarded.
func (p *CompiledPlan) Run(ctx context.Context, db *storage.Database, o RunOpts) ([]storage.Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	gs := newGuardState(ctx, o.Limits.MaxRows)
	rows := p.evalUnsorted(db, o.Args, o.Workers, gs)
	if err := gs.failure(); err != nil {
		return nil, err
	}
	if max := o.Limits.MaxRows; max > 0 && len(rows) > max {
		return nil, fmt.Errorf("datalog: result has %d row(s), budget is %d: %w", len(rows), max, ErrBudgetExceeded)
	}
	if !o.Unsorted {
		storage.SortTuples(rows)
	}
	return rows, nil
}

// fixpointGuard builds the guard for a fixpoint-shaped run: cancellation
// from ctx, with the per-worker emit backstop wired to the derivation
// budget (the authoritative MaxDerived/MaxRounds checks run at the round
// barriers).
func fixpointGuard(ctx context.Context, lim Limits) *guardState {
	return newGuardState(ctx, lim.MaxDerived)
}

// Run evaluates the program's fixpoint over edb and returns a database
// holding the EDB relations plus every derived relation, like
// Program.EvalInterp. edb is neither mutated nor retained: the fixpoint
// runs over a private clone, indexed on exactly the columns the compiled
// probes need before the first round, into which the derived relations are
// then inserted. On cancellation or a tripped budget the partial database
// is discarded; use RunRelation when partial-progress stats matter.
func (cp *CompiledProgram) Run(ctx context.Context, edb *storage.Database, o RunOpts) (*storage.Database, error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	db := edb.Clone()
	cp.freeze(db)
	idb, _, err := cp.run(db, o.Workers, fixpointGuard(ctx, o.Limits), o.Limits)
	if err != nil {
		return nil, err
	}
	return materializeIDB(db, idb)
}

// RunRelation evaluates the fixpoint over edb and returns just pred's
// tuples — the serving path: the engine asks for the answer predicate and
// skips the clone Run pays. edb is only read, so any number of runs may
// share one frozen database. The returned slice is fresh; callers may sort
// or filter it in place. On error the stats carry the partial progress
// (rounds executed, tuples derived) at the moment the run stopped.
func (cp *CompiledProgram) RunRelation(ctx context.Context, edb *storage.Database, pred string, o RunOpts) ([]storage.Tuple, FixpointStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, FixpointStats{}, ErrCanceled
	}
	idb, stats, err := cp.run(edb, o.Workers, fixpointGuard(ctx, o.Limits), o.Limits)
	if err != nil {
		return nil, stats, err
	}
	if ir, ok := idb[pred]; ok {
		return ir.tuples, stats, nil
	}
	if rel := edb.Relation(pred); rel != nil {
		out := make([]storage.Tuple, len(rel.Tuples()))
		copy(out, rel.Tuples())
		return out, stats, nil
	}
	return nil, stats, nil
}
