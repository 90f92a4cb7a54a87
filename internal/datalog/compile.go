package datalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Compiled slot-based physical plans. Compile lowers a conjunctive query to
// a CompiledPlan once; executing the plan is then tuple-at-a-time join
// evaluation with none of the interpretive overhead:
//
//   - variables become integer slots in a flat []string register frame — no
//     Bindings map, no allocation, no delete-trail on backtrack;
//   - the join order is fixed at compile time from catalog statistics
//     (internal/cost) instead of being re-derived greedily per call;
//   - every atom carries its access path: an index probe column fed from a
//     slot or a constant, or a full scan;
//   - each comparison is attached to the earliest join depth at which both
//     sides are bound, pruning partial bindings instead of filtering leaves;
//   - don't-care columns (singleton variables reaching neither head nor
//     comparisons) are skipped entirely, with per-step dedup of the bound
//     columns standing in for the interpreter's materialised projections;
//   - a step that binds no new slots is existential: its first matching
//     tuple decides the whole candidate loop.
//
// The executor never mutates the relations it reads: candidate sets come
// from Relation.LookupPositions (a shared []int, no []Tuple materialised)
// with a scan fallback when indexes are stale. Run may therefore shard the
// outermost candidate loop across RunOpts.Workers goroutines over a frozen
// database, merging per-worker results at the end.

// colAction says how one column of a step's candidate tuple is used.
type colAction uint8

const (
	colBind       colAction = iota // copy tuple[col] into frame[slot]
	colCheckSlot                   // tuple[col] must equal frame[slot]
	colCheckConst                  // tuple[col] must equal constVal
)

// colOp is one column action of a step. Don't-care columns have no op.
type colOp struct {
	action   colAction
	col      int
	slot     int
	constVal string
}

// compiledComp is a comparison whose operands resolve to slots or constants.
type compiledComp struct {
	op                    cq.CompOp
	leftSlot, rightSlot   int // -1 → constant operand
	leftConst, rightConst cq.Term
}

// compiledStep is one join step: an access path plus per-column actions.
type compiledStep struct {
	pred string
	// Access path: probe the index on probeCol with the value in
	// frame[probeSlot] (or probeConst when probeSlot < 0); probeCol < 0
	// means full scan. The probed column keeps its check op so the scan
	// fallback stays correct.
	probeCol   int
	probeSlot  int
	probeConst string
	ops        []colOp
	// opsIndexed is ops without the probed column's check: candidates
	// from the index already satisfy it. The scan fallback uses ops.
	opsIndexed []colOp
	// comps are the comparisons whose operands are all bound once this
	// step's columns are, checked before descending.
	comps []compiledComp
	// existential: the step binds no new slots, so its first matching
	// tuple decides the whole candidate loop.
	existential bool
	// dedup: the step has don't-care columns and binds slots, so distinct
	// candidate tuples can carry identical bindings; repeats are skipped
	// (the compiled form of projection pushdown).
	dedup bool
}

// compiledComponent is one connected component of the body: its join steps
// and the slots of the head variables it provides.
type compiledComponent struct {
	steps     []compiledStep
	headSlots []int
	// distinct: the component's answers are distinct by construction
	// (isDistinct), so the executor keeps no dedup set for it.
	distinct bool
}

// isDistinct reports whether no step dedups and every slot a step binds is
// a head slot — then the answers are distinct by construction. Relations
// are sets, so two candidates matching a non-dedup step under the same
// frame differ in a bound column; existential steps stop at their first
// match; root shards split the candidates. Distinct complete frames
// therefore differ in some bound slot, which is a head slot, so their
// projections differ too.
func (c *compiledComponent) isDistinct() bool {
	for i := range c.steps {
		s := &c.steps[i]
		if s.dedup {
			return false
		}
		for _, op := range s.ops {
			if op.action == colBind && !slices.Contains(c.headSlots, op.slot) {
				return false
			}
		}
	}
	return true
}

// headOp builds one head-tuple column from the frame or a constant.
type headOp struct {
	slot     int // -1 → constant
	constVal string
}

// CompiledPlan is an immutable slot-based physical plan for one conjunctive
// query. A plan is compiled once (per engine cache entry) and may be
// executed concurrently by any number of goroutines: execution state lives
// entirely in per-call frames.
type CompiledPlan struct {
	numSlots   int
	head       []headOp
	components []compiledComponent
	// paramSlots are the frame slots of the plan's parameter variables, in
	// declaration order; executions bind them before the first join step.
	paramSlots []int
	// empty marks plans proven unsatisfiable at compile time (a ground
	// comparison failed, or a comparison variable occurs in no subgoal).
	empty bool
}

// Compile lowers q to a physical plan using catalog statistics for join
// ordering and probe selection. A nil catalog is allowed: ordering then
// falls back to bound-columns-first with stable tie-breaks. The plan is
// independent of any database; relations are resolved by name at
// execution time, and predicates missing from the database evaluate as
// empty relations (matching EvalQuery).
func Compile(q *cq.Query, cat *cost.Catalog) *CompiledPlan {
	return CompileParams(q, nil, cat)
}

// CompileParams is Compile for a parameterized plan: the named variables
// become parameter slots, treated as bound before the first join step —
// join ordering, index-probe selection and comparison placement all see
// them as available values, exactly like constants whose value arrives at
// execution time. Execute with Run, passing one RunOpts.Args entry per
// parameter in the order given here. Parameters may occur anywhere a
// variable can (body atoms, comparisons, the head); a prepared point lookup
// compiles to the same index-probe plan as its constant-bound original.
func CompileParams(q *cq.Query, params []string, cat *cost.Catalog) *CompiledPlan {
	if cat == nil {
		cat = &cost.Catalog{}
	}
	p := &CompiledPlan{}

	// Slot assignment: head and comparison variables always get slots, as
	// does any variable with two or more occurrences (join variables, and
	// repeated variables within an atom, which compile to bind-then-check).
	// Remaining singletons are don't-care positions and never enter the
	// frame. Parameters always get slots — the execution binding must have
	// somewhere to land — and are assigned first, in declaration order.
	needed := neededVars(q)
	occ := make(map[string]int)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				occ[t.Lex]++
			}
		}
	}
	slots := make(map[string]int)
	slotOf := func(name string) int {
		s, ok := slots[name]
		if !ok {
			s = p.numSlots
			slots[name] = s
			p.numSlots++
		}
		return s
	}
	isParam := make(map[string]bool, len(params))
	for _, v := range params {
		isParam[v] = true
		p.paramSlots = append(p.paramSlots, slotOf(v))
	}
	keep := func(t cq.Term) bool { return needed[t.Lex] || occ[t.Lex] > 1 || isParam[t.Lex] }

	// Ground comparisons are decided now; the rest attach to join depths.
	for _, c := range q.Comparisons {
		if c.Left.IsConst() && c.Right.IsConst() && !c.Op.EvalConst(c.Left, c.Right) {
			p.empty = true
		}
	}

	bound := make(map[string]bool, len(params))
	for _, v := range params {
		bound[v] = true
	}
	for _, comp := range splitComponents(q) {
		cc := compiledComponent{}
		for _, v := range comp.headVars {
			cc.headSlots = append(cc.headSlots, slotOf(v))
		}
		var pending []cq.Comparison
		for _, c := range comp.comps {
			if c.Left.IsConst() && c.Right.IsConst() {
				continue // handled above
			}
			pending = append(pending, c)
		}

		remaining := make([]int, len(comp.atoms))
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			next := chooseNext(comp.atoms, remaining, bound, cat)
			a := comp.atoms[next]
			step := lowerAtom(a, bound, slotOf, keep, cat)
			pending = attachComparisons(&step, pending, bound, slots)
			cc.steps = append(cc.steps, step)
			remaining = removeIdx(remaining, next)
		}
		if len(pending) > 0 {
			// A comparison variable occurs in no relational subgoal of its
			// component (an unsafe query): no binding can satisfy it.
			p.empty = true
		}
		cc.distinct = cc.isDistinct()
		p.components = append(p.components, cc)
	}

	for _, t := range q.Head.Args {
		if t.IsVar() {
			p.head = append(p.head, headOp{slot: slotOf(t.Lex)})
		} else {
			p.head = append(p.head, headOp{slot: -1, constVal: t.Lex})
		}
	}
	return p
}

// chooseNext picks the next atom to join: most bound argument positions
// first (each bound column is an index restriction), then the smallest
// estimated candidate count under the catalog, then body order. With a
// rows-only catalog the estimate is the relation cardinality, reproducing
// the interpreter's smaller-relation tie-break; with full statistics bound
// columns are discounted by their distinct counts.
func chooseNext(atoms []cq.Atom, remaining []int, bound map[string]bool, cat *cost.Catalog) int {
	best, bestScore, bestEst := -1, -1, 0.0
	for _, idx := range remaining {
		a := atoms[idx]
		score := 0
		est := cat.Rows(a.Pred)
		for col, t := range a.Args {
			if t.IsConst() || t.IsVar() && bound[t.Lex] {
				score++
				est /= cat.Distinct(a.Pred, col)
			}
		}
		if best == -1 || score > bestScore || score == bestScore && est < bestEst {
			best, bestScore, bestEst = idx, score, est
		}
	}
	return best
}

// lowerAtom compiles one atom into a step, updating bound as it assigns
// slots. Among the bound columns the probe targets the one with the most
// distinct values (the most selective index).
func lowerAtom(a cq.Atom, bound map[string]bool, slotOf func(string) int, keep func(cq.Term) bool, cat *cost.Catalog) compiledStep {
	step := compiledStep{pred: a.Pred, probeCol: -1, probeSlot: -1}
	bestDistinct := 0.0
	for col, t := range a.Args {
		if t.IsConst() || t.IsVar() && bound[t.Lex] {
			if d := cat.Distinct(a.Pred, col); step.probeCol < 0 || d > bestDistinct {
				step.probeCol, bestDistinct = col, d
				if t.IsConst() {
					step.probeSlot, step.probeConst = -1, t.Lex
				} else {
					step.probeSlot, step.probeConst = slotOf(t.Lex), ""
				}
			}
		}
	}
	binds, ignored := 0, false
	for col, t := range a.Args {
		switch {
		case t.IsConst():
			step.ops = append(step.ops, colOp{action: colCheckConst, col: col, constVal: t.Lex})
		case bound[t.Lex]:
			step.ops = append(step.ops, colOp{action: colCheckSlot, col: col, slot: slotOf(t.Lex)})
		case keep(t):
			step.ops = append(step.ops, colOp{action: colBind, col: col, slot: slotOf(t.Lex)})
			bound[t.Lex] = true
			binds++
		default:
			ignored = true
		}
	}
	step.existential = binds == 0
	step.dedup = ignored && binds > 0
	step.opsIndexed = step.ops
	if step.probeCol >= 0 {
		// The probed column is always a check (it was const or bound);
		// drop it from the indexed op list.
		step.opsIndexed = make([]colOp, 0, len(step.ops)-1)
		for _, op := range step.ops {
			if op.col != step.probeCol {
				step.opsIndexed = append(step.opsIndexed, op)
			}
		}
	}
	return step
}

// attachComparisons moves every comparison whose operands are now bound
// onto the step, returning the ones still waiting for bindings.
func attachComparisons(step *compiledStep, pending []cq.Comparison, bound map[string]bool, slots map[string]int) []cq.Comparison {
	var still []cq.Comparison
	for _, c := range pending {
		ready := true
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() && !bound[t.Lex] {
				ready = false
			}
		}
		if !ready {
			still = append(still, c)
			continue
		}
		cc := compiledComp{op: c.Op, leftSlot: -1, rightSlot: -1}
		if c.Left.IsVar() {
			cc.leftSlot = slots[c.Left.Lex]
		} else {
			cc.leftConst = c.Left
		}
		if c.Right.IsVar() {
			cc.rightSlot = slots[c.Right.Lex]
		} else {
			cc.rightConst = c.Right
		}
		step.comps = append(step.comps, cc)
	}
	return still
}

func removeIdx(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// applyStep matches one candidate tuple against the step under the given
// op list (ops for scans, opsIndexed for index candidates), binding and
// checking columns in order and then checking the step's comparisons. It
// reports whether the tuple matches; on mismatch any slots already written
// are garbage, which is safe because they are only read on paths where the
// whole step matched.
func applyStep(step *compiledStep, ops []colOp, t storage.Tuple, frame []string) bool {
	for _, op := range ops {
		v := t[op.col]
		switch op.action {
		case colBind:
			frame[op.slot] = v
		case colCheckSlot:
			if frame[op.slot] != v {
				return false
			}
		default: // colCheckConst
			if op.constVal != v {
				return false
			}
		}
	}
	for _, cc := range step.comps {
		l, r := cc.leftConst, cc.rightConst
		if cc.leftSlot >= 0 {
			l = cq.Const(frame[cc.leftSlot])
		}
		if cc.rightSlot >= 0 {
			r = cq.Const(frame[cc.rightSlot])
		}
		if !cc.op.EvalConst(l, r) {
			return false
		}
	}
	return true
}

// appendBindKey appends the dedup key of a candidate tuple at a step — its
// bound-column values — to buf. Checked columns are equal across all
// candidates that reach this point, so binds alone determine the subtree.
func appendBindKey(buf []byte, step *compiledStep, t storage.Tuple) []byte {
	for _, op := range step.ops {
		if op.action == colBind {
			buf = append(buf, t[op.col]...)
			buf = append(buf, 0x1f)
		}
	}
	return buf
}

// stepSrc is one step's per-call execution source: the relation's tuple
// slice and, when the probe index is built at the current version, the
// probe column's hash index resolved once — one map hop per probe instead
// of two, and no staleness re-check in the loop. A missing predicate
// leaves tuples empty. The executor never mutates the relation: stale
// indexes simply leave idx nil and the step scans.
type stepSrc struct {
	tuples []storage.Tuple
	idx    map[string][]int
}

// joinSteps enumerates the component's matches from the given depth,
// invoking yield with the shared frame for each complete one. It reports
// false iff yield asked to stop. g may be nil (no cancellation checks).
func joinSteps(c *compiledComponent, srcs []stepSrc, depth int, frame []string, g *evalGuard, yield func([]string) bool) bool {
	if depth == len(c.steps) {
		return yield(frame)
	}
	step := &c.steps[depth]
	src := &srcs[depth]
	if src.idx != nil {
		val := step.probeConst
		if step.probeSlot >= 0 {
			val = frame[step.probeSlot]
		}
		return stepLoop(c, srcs, depth, frame, g, yield, src.tuples, src.idx[val], true, 0, 1)
	}
	return stepLoop(c, srcs, depth, frame, g, yield, src.tuples, nil, false, 0, 1)
}

// stepLoop runs one step's candidate loop over either an index position
// list or a full scan, visiting candidates offset, offset+stride, ... —
// inner depths always run the full loop (0, 1); parallel shards stride
// the root. It reports false iff yield asked to stop or the guard tripped.
func stepLoop(c *compiledComponent, srcs []stepSrc, depth int, frame []string, g *evalGuard, yield func([]string) bool, tuples []storage.Tuple, positions []int, usePositions bool, offset, stride int) bool {
	step := &c.steps[depth]
	var seen map[string]bool
	var keyBuf []byte
	ops := step.ops
	n := len(tuples)
	if usePositions {
		n = len(positions)
		ops = step.opsIndexed
	}
	for i := offset; i < n; i += stride {
		if g != nil && g.tick() {
			return false
		}
		t := tuples[i]
		if usePositions {
			t = tuples[positions[i]]
		}
		if !applyStep(step, ops, t, frame) {
			continue
		}
		if step.dedup {
			keyBuf = appendBindKey(keyBuf[:0], step, t)
			if seen == nil {
				seen = make(map[string]bool)
			}
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
		}
		if !joinSteps(c, srcs, depth+1, frame, g, yield) {
			return false
		}
		if step.existential {
			return true // binds nothing: the first match decides
		}
	}
	return true
}

// evalUnsorted is the executor behind Run: the distinct answers in
// discovery order, with args bound to the parameter slots. On a tripped
// guard the partial rows are meaningless; callers must consult
// gs.failure() first.
func (p *CompiledPlan) evalUnsorted(db *storage.Database, args []string, workers int, gs *guardState) []storage.Tuple {
	base := p.baseFrame(args)
	// Single-component fast path (the common case): emit head tuples
	// straight from the frame into slab-carved tuples.
	if !p.empty && len(p.components) == 1 && len(p.components[0].headSlots) > 0 {
		c := &p.components[0]
		return p.enumerateComponent(c, p.resolve(db, c), workers, base, p.headTuple, gs)
	}
	parts, ok := p.componentRows(db, workers, base, gs)
	if !ok || gs.failure() != nil {
		return nil
	}
	// Cross-component results multiply; bound the product before the
	// combine materialises it.
	if gs != nil && gs.maxRows > 0 {
		prod := 1
		for i := range p.components {
			if len(p.components[i].headSlots) > 0 {
				prod *= len(parts[i])
				if prod > gs.maxRows {
					gs.trip(fmt.Errorf("datalog: row budget of %d exceeded: %w", gs.maxRows, ErrBudgetExceeded))
					return nil
				}
			}
		}
	}
	return p.combineComponents(parts, base, gs)
}

// combineComponents combines the per-component distinct projections into
// head tuples. Components bind disjoint head variables, so distinct row
// combinations yield distinct head tuples — no cross-component dedup is
// needed. The product can dwarf the component scans (it multiplies where
// they add), so the combine loop carries its own guard: cancellation lands
// within one guardInterval of output tuples, not after the full product.
func (p *CompiledPlan) combineComponents(parts [][]storage.Tuple, base []string, gs *guardState) []storage.Tuple {
	var out []storage.Tuple
	var slab tupleSlab
	g := gs.child()
	frame := make([]string, p.numSlots)
	copy(frame, base) // head positions may read parameter slots
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(p.components) {
			if g != nil && g.tick() {
				return false
			}
			out = append(out, p.headTuple(frame, &slab))
			return true
		}
		c := &p.components[i]
		if len(c.headSlots) == 0 {
			return rec(i + 1)
		}
		for _, row := range parts[i] {
			for j, s := range c.headSlots {
				frame[s] = row[j]
			}
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}

// baseFrame builds the initial register frame of one execution: zero values
// everywhere except the parameter slots, which hold args. A nil frame means
// no slots at all.
func (p *CompiledPlan) baseFrame(args []string) []string {
	if len(args) != len(p.paramSlots) {
		panic(fmt.Sprintf("datalog: plan takes %d parameter(s), got %d", len(p.paramSlots), len(args)))
	}
	if p.numSlots == 0 {
		return nil
	}
	base := make([]string, p.numSlots)
	for i, s := range p.paramSlots {
		base[s] = args[i]
	}
	return base
}

// resolve binds the component's steps to db: tuple slices plus, for steps
// whose probe index is built, the resolved column index.
func (p *CompiledPlan) resolve(db *storage.Database, c *compiledComponent) []stepSrc {
	srcs := make([]stepSrc, len(c.steps))
	for j := range c.steps {
		s := &c.steps[j]
		rel := db.Relation(s.pred)
		if rel == nil {
			continue // missing predicate: empty relation
		}
		srcs[j].tuples = rel.Tuples()
		if s.probeCol >= 0 {
			if idx, ok := rel.ColumnIndex(s.probeCol); ok {
				srcs[j].idx = idx
			}
		}
	}
	return srcs
}

// projectRow returns the projection of a frame onto the component's head
// slots, for combining per-component results.
func (c *compiledComponent) projectRow(frame []string, slab *tupleSlab) storage.Tuple {
	row := slab.alloc(len(c.headSlots))
	for j, s := range c.headSlots {
		row[j] = frame[s]
	}
	return row
}

// componentRows evaluates every component, returning its distinct
// projections onto its head slots (nil rows for existence-only
// components). ok=false means some component has no match — the query has
// no answers at all.
func (p *CompiledPlan) componentRows(db *storage.Database, workers int, base []string, gs *guardState) ([][]storage.Tuple, bool) {
	if p.empty {
		return nil, false
	}
	parts := make([][]storage.Tuple, len(p.components))
	for i := range p.components {
		c := &p.components[i]
		srcs := p.resolve(db, c)
		if len(c.headSlots) == 0 {
			// Pure existence check: one witness suffices.
			found := false
			frame := make([]string, p.numSlots)
			copy(frame, base)
			joinSteps(c, srcs, 0, frame, gs.child(), func([]string) bool {
				found = true
				return false
			})
			if !found {
				return nil, false
			}
			continue
		}
		rows := p.enumerateComponent(c, srcs, workers, base, c.projectRow, gs)
		if len(rows) == 0 {
			return nil, false
		}
		parts[i] = rows
	}
	return parts, true
}

// enumerateComponent collects the component's distinct projections under
// the given projection function, sharding the root candidate loop across
// workers when profitable. base is the initial frame (parameter slots
// filled; see baseFrame).
func (p *CompiledPlan) enumerateComponent(c *compiledComponent, srcs []stepSrc, workers int, base []string, project projectFunc, gs *guardState) []storage.Tuple {
	root := &c.steps[0]
	tuples := srcs[0].tuples
	// Resolve the root candidate set once. At depth 0 the only bound slots
	// are parameters, so a root probe is fed by a constant or a parameter.
	var positions []int
	usePositions := false
	if srcs[0].idx != nil {
		val := root.probeConst
		if root.probeSlot >= 0 {
			val = base[root.probeSlot]
		}
		positions, usePositions = srcs[0].idx[val], true
	}
	n := len(tuples)
	if usePositions {
		n = len(positions)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || root.existential {
		return p.runShard(c, srcs, tuples, positions, usePositions, 0, 1, base, project, gs.child())
	}

	// Shard the root loop round-robin; each worker dedups its own shard,
	// the merge below dedups across shards. The shards of a distinct
	// component are disjoint and simply concatenate.
	shards := make([][]storage.Tuple, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shards[w] = p.runShard(c, srcs, tuples, positions, usePositions, w, workers, base, project, gs.child())
		}(w)
	}
	wg.Wait()
	if c.distinct {
		return slices.Concat(shards...)
	}
	var rows []storage.Tuple
	seen := make(map[string]bool)
	for _, shard := range shards {
		for _, row := range shard {
			k := row.Key()
			if !seen[k] {
				seen[k] = true
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// runShard enumerates root candidates offset, offset+stride, ... through
// the shared stepLoop and returns the distinct projections found below
// them.
func (p *CompiledPlan) runShard(c *compiledComponent, srcs []stepSrc, tuples []storage.Tuple, positions []int, usePositions bool, offset, stride int, base []string, project projectFunc, g *evalGuard) []storage.Tuple {
	frame := make([]string, p.numSlots)
	copy(frame, base)
	var rows []storage.Tuple
	var slab tupleSlab
	var seen map[string]bool
	if !c.distinct {
		seen = make(map[string]bool)
	}
	var keyBuf []byte
	emit := func(frame []string) bool {
		if seen != nil {
			// Head tuples are injective in the head-slot values, so the
			// frame key decides newness before the projection is
			// materialised. The key is assembled in a reused buffer: the
			// map lookup on string(keyBuf) does not allocate, only
			// inserting a new key does.
			keyBuf = keyBuf[:0]
			for _, s := range c.headSlots {
				keyBuf = append(keyBuf, frame[s]...)
				keyBuf = append(keyBuf, 0x1f)
			}
			if seen[string(keyBuf)] {
				return true
			}
			seen[string(keyBuf)] = true
		}
		rows = append(rows, project(frame, &slab))
		return !g.emitRow()
	}
	stepLoop(c, srcs, 0, frame, g, emit, tuples, positions, usePositions, offset, stride)
	return rows
}

// projectFunc builds one result row from a complete frame, carving it
// from slab.
type projectFunc func(frame []string, slab *tupleSlab) storage.Tuple

// tupleSlab carves result rows out of shared backing arrays. Each refill
// holds twice the rows of the last, up to slabRows, so a one-row point
// lookup allocates one row and a large answer set one array per slabRows
// rows. Each row is capped at its own length, so appending to it never
// writes into a neighbour.
type tupleSlab struct {
	free []string
	rows int // rows per refill
}

const slabRows = 64

func (s *tupleSlab) alloc(n int) storage.Tuple {
	if len(s.free) < n {
		s.rows = min(max(2*s.rows, 1), slabRows)
		s.free = make([]string, s.rows*n)
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return storage.Tuple(t)
}

// headTuple builds the answer tuple for a complete frame.
func (p *CompiledPlan) headTuple(frame []string, slab *tupleSlab) storage.Tuple {
	t := slab.alloc(len(p.head))
	for i, h := range p.head {
		if h.slot >= 0 {
			t[i] = frame[h.slot]
		} else {
			t[i] = h.constVal
		}
	}
	return t
}

// NumSlots returns the register-frame width (distinct retained variables).
func (p *CompiledPlan) NumSlots() int { return p.numSlots }

// NumParams returns the number of parameter slots (CompileParams).
func (p *CompiledPlan) NumParams() int { return len(p.paramSlots) }

// Describe renders the physical plan for humans: one line per join step
// with its access path, binding actions and attached comparisons.
func (p *CompiledPlan) Describe() string {
	var sb strings.Builder
	if p.empty {
		return "empty plan (unsatisfiable at compile time)\n"
	}
	if len(p.paramSlots) > 0 {
		fmt.Fprintf(&sb, "params -> slots %v\n", p.paramSlots)
	}
	for i := range p.components {
		c := &p.components[i]
		fmt.Fprintf(&sb, "component %d", i)
		if len(c.headSlots) == 0 {
			sb.WriteString(" (existence check)")
		} else {
			fmt.Fprintf(&sb, " -> slots %v", c.headSlots)
			if c.distinct {
				sb.WriteString("  distinct")
			}
		}
		sb.WriteByte('\n')
		for j := range c.steps {
			describeStep(&sb, "  ", j, &c.steps[j], false)
		}
	}
	return sb.String()
}

// describeStep renders one join step (access path, flags, comparisons) for
// the plan and program Describe methods. deltaRoot marks the first step of
// a delta variant, whose candidates come from the round's delta instead of
// the step's access path.
func describeStep(sb *strings.Builder, indent string, idx int, s *compiledStep, deltaRoot bool) {
	access := "scan"
	switch {
	case deltaRoot:
		access = "delta"
	case s.probeCol >= 0 && s.probeSlot >= 0:
		access = fmt.Sprintf("index(col=%d <- slot %d)", s.probeCol, s.probeSlot)
	case s.probeCol >= 0:
		access = fmt.Sprintf("index(col=%d = %q)", s.probeCol, s.probeConst)
	}
	fmt.Fprintf(sb, "%s%d. %s  %s", indent, idx+1, s.pred, access)
	if s.existential {
		sb.WriteString("  existential")
	}
	if s.dedup {
		sb.WriteString("  dedup")
	}
	if len(s.comps) > 0 {
		fmt.Fprintf(sb, "  comparisons=%d", len(s.comps))
	}
	sb.WriteByte('\n')
}
