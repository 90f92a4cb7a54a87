package datalog

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Compiled datalog programs. CompileProgram lowers every rule of a Program
// to slot-plan form once; CompiledProgram.Run then runs a proper semi-naive
// fixpoint over the compiled rules with none of the interpretive overhead of
// Program.EvalInterp:
//
//   - each rule body becomes a sequence of compiledSteps — the same
//     integer-slot frames, catalog-ordered joins, index-probe access paths
//     and earliest-bound-depth comparisons the single-query compiler emits —
//     followed by a head-emission step that writes Skolem, constant and slot
//     columns directly into the derived tuple;
//   - every rule occurrence of an IDB predicate gets its own delta variant:
//     a plan with that atom forced to the root of the join order, fed by the
//     previous round's delta instead of the full relation. Rounds after the
//     first run only delta variants, so work is proportional to what the
//     last round derived, not to the accumulated fixpoint;
//   - derived (IDB) relations are private to the run and maintain
//     their probe-column hash indexes incrementally as tuples are inserted,
//     instead of the interpreter's discard-and-rebuild on every insert;
//   - within a round, rule-variant executions only read the relations
//     (inserts are buffered and merged between rounds), so a round's
//     variants can run across RunOpts.Workers goroutines without locks.
//
// The executor never mutates the EDB it reads: base candidates come from
// frozen column indexes when available and degrade to scans otherwise,
// exactly like CompiledPlan. Any number of RunRelation calls may therefore
// run concurrently over one shared database; Run indexes a private clone.

// ruleHeadOp builds one head-tuple column: from a Skolem application over
// frame slots, from a frame slot, or from a constant.
type ruleHeadOp struct {
	skolem   *compiledSkolem // nil unless the column is a Skolem term
	slot     int             // -1 → constant
	constVal string
}

// compiledSkolem is a Skolem function term whose arguments resolve to slots.
type compiledSkolem struct {
	name     string
	argSlots []int
}

// ruleVariant is one executable form of a rule: the full plan (fired once,
// in round 0) or a delta variant (fired whenever its delta predicate gained
// tuples in the previous round, with the delta atom at the join root).
type ruleVariant struct {
	// deltaPos is the body position the variant restricts to the delta;
	// -1 for the full variant.
	deltaPos  int
	deltaPred string
	steps     []compiledStep
	head      []ruleHeadOp
	numSlots  int
	// unsafeVar names a head or Skolem-argument variable the body never
	// binds; the first body match reports it as an evaluation error,
	// matching the interpreter's lazy unsafe-rule detection.
	unsafeVar string
	// empty marks variants proven matchless at compile time: a ground
	// comparison failed, or a comparison variable occurs in no body atom
	// (the interpreter silently filters every binding in both cases).
	empty bool
}

// compiledRule is one rule's compiled forms plus its head shape.
type compiledRule struct {
	headPred string
	arity    int
	full     ruleVariant
	deltas   []ruleVariant
	// edbDeltas are per-EDB-occurrence delta variants, compiled only for
	// maintenance programs (CompileProgramIVM): they seed an Apply
	// propagation round from a batch of base-relation inserts, exactly as
	// the IDB variants in deltas continue it from derived tuples.
	edbDeltas []ruleVariant
	src       Rule // retained for Describe
}

// FixpointStats reports the work of one semi-naive evaluation.
type FixpointStats struct {
	// Iterations is the number of semi-naive rounds executed, including
	// round 0 (the full-plan round).
	Iterations int
	// Derived is the number of distinct IDB tuples derived beyond the EDB.
	Derived int
}

// CompiledProgram is an immutable compiled form of a datalog Program. Like
// CompiledPlan it is compiled once (per engine cache entry) and may be
// evaluated concurrently by any number of goroutines: all fixpoint state
// lives in per-call structures.
type CompiledProgram struct {
	rules []compiledRule
	// idbArity maps every derived predicate to its arity.
	idbArity map[string]int
	// idbProbeCols lists, per IDB predicate, the columns some compiled step
	// probes; per-call IDB relations maintain exactly these hash indexes
	// incrementally.
	idbProbeCols map[string][]int
	// ivm marks programs compiled with per-EDB-occurrence delta variants
	// (CompileProgramIVM); only those support Apply.
	ivm bool
	// flat marks IVM programs whose rule bodies reference no derived
	// predicate (non-recursive, single-level view sets): deletions maintain
	// exact per-derived-tuple multiplicity counts. Non-flat programs fall
	// back to DRed (delete-and-rederive); see delete.go.
	flat bool
	// countFull / countDeltas are the counting plan variants of flat IVM
	// programs: one full enumeration per rule and one delta variant per body
	// occurrence, compiled with every body variable kept so each emission is
	// one distinct derivation (see delete.go).
	countFull   []countVariant
	countDeltas [][]countVariant
	// supports are the re-derivation variants of non-flat IVM programs: per
	// rule, a plan rooted at the rule's own head (fed by over-deleted
	// tuples), or the filtered full variant when the head contains Skolem
	// terms (see delete.go).
	supports []supportVariant
}

// CompileProgram lowers a program to compiled-rule form using catalog
// statistics for join ordering and probe selection (nil falls back to
// bound-columns-first ordering). It fails when two rules derive the same
// predicate with different arities — the interpreter reports the same
// conflict at evaluation time.
func CompileProgram(p *Program, cat *cost.Catalog) (*CompiledProgram, error) {
	return compileProgram(p, cat, false)
}

// CompileProgramIVM is CompileProgram for incremental view maintenance: in
// addition to the per-IDB-occurrence delta variants it lowers one delta
// variant per EDB body occurrence, so Apply can seed a semi-naive
// propagation round directly from a batch of base-relation inserts instead
// of re-running the fixpoint from scratch.
func CompileProgramIVM(p *Program, cat *cost.Catalog) (*CompiledProgram, error) {
	return compileProgram(p, cat, true)
}

func compileProgram(p *Program, cat *cost.Catalog, ivm bool) (*CompiledProgram, error) {
	if cat == nil {
		cat = &cost.Catalog{}
	}
	cp := &CompiledProgram{
		idbArity:     make(map[string]int),
		idbProbeCols: make(map[string][]int),
		ivm:          ivm,
	}
	for _, r := range p.Rules {
		if prev, ok := cp.idbArity[r.HeadPred]; ok && prev != len(r.Head) {
			return nil, fmt.Errorf("datalog: relation %s derived with arities %d and %d", r.HeadPred, prev, len(r.Head))
		}
		cp.idbArity[r.HeadPred] = len(r.Head)
	}
	probeCols := make(map[string]map[int]bool)
	for _, r := range p.Rules {
		cr := compiledRule{headPred: r.HeadPred, arity: len(r.Head), src: r}
		cr.full = compileRuleVariant(r, -1, cat)
		collectProbeCols(cp.idbArity, probeCols, cr.full.steps)
		for pos, a := range r.Body {
			_, idb := cp.idbArity[a.Pred]
			switch {
			case idb:
				v := compileRuleVariant(r, pos, cat)
				collectProbeCols(cp.idbArity, probeCols, v.steps)
				cr.deltas = append(cr.deltas, v)
			case ivm:
				v := compileRuleVariant(r, pos, cat)
				collectProbeCols(cp.idbArity, probeCols, v.steps)
				cr.edbDeltas = append(cr.edbDeltas, v)
			}
		}
		cp.rules = append(cp.rules, cr)
	}
	for pred, cols := range probeCols {
		for col := range cols {
			cp.idbProbeCols[pred] = append(cp.idbProbeCols[pred], col)
		}
		sort.Ints(cp.idbProbeCols[pred])
	}
	if ivm {
		cp.compileDeletionSupport(p, cat)
	}
	return cp, nil
}

// collectProbeCols records which IDB columns the steps probe. The delta-root
// step of a delta variant is included too: the same (pred, col) pair is
// probed by the full variant, and recording it unconditionally keeps the
// maintained-index set a superset of what execution asks for.
func collectProbeCols(idb map[string]int, out map[string]map[int]bool, steps []compiledStep) {
	for i := range steps {
		s := &steps[i]
		if s.probeCol < 0 {
			continue
		}
		if _, ok := idb[s.pred]; !ok {
			continue
		}
		if out[s.pred] == nil {
			out[s.pred] = make(map[int]bool)
		}
		out[s.pred][s.probeCol] = true
	}
}

// compileRuleVariant lowers one rule into a variant. deltaPos >= 0 forces
// that body atom to the root of the join order (it will read the delta
// relation at execution time); the remaining atoms are ordered by the same
// bound-columns-first, catalog-estimated policy single-query plans use.
func compileRuleVariant(r Rule, deltaPos int, cat *cost.Catalog) ruleVariant {
	v := ruleVariant{deltaPos: deltaPos}
	if deltaPos >= 0 {
		v.deltaPred = r.Body[deltaPos].Pred
	}

	// Variables that must survive into the frame: head variables, Skolem
	// arguments, comparison variables, and any variable with two or more
	// body occurrences. The rest are don't-care positions.
	needed := make(map[string]bool)
	for _, h := range r.Head {
		if h.Skolem != nil {
			for _, a := range h.Skolem.Args {
				needed[a] = true
			}
		} else if h.Term.IsVar() {
			needed[h.Term.Lex] = true
		}
	}
	for _, c := range r.Comparisons {
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() {
				needed[t.Lex] = true
			}
		}
	}
	occ := make(map[string]int)
	for _, a := range r.Body {
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
			s = v.numSlots
			slots[name] = s
			v.numSlots++
		}
		return s
	}
	keep := func(t cq.Term) bool { return needed[t.Lex] || occ[t.Lex] > 1 }

	var pending []cq.Comparison
	for _, c := range r.Comparisons {
		if c.Left.IsConst() && c.Right.IsConst() {
			if !c.Op.EvalConst(c.Left, c.Right) {
				v.empty = true
			}
			continue
		}
		pending = append(pending, c)
	}

	bound := make(map[string]bool)
	remaining := make([]int, 0, len(r.Body))
	for i := range r.Body {
		if i != deltaPos {
			remaining = append(remaining, i)
		}
	}
	lower := func(idx int) {
		step := lowerAtom(r.Body[idx], bound, slotOf, keep, cat)
		pending = attachComparisons(&step, pending, bound, slots)
		v.steps = append(v.steps, step)
	}
	if deltaPos >= 0 {
		lower(deltaPos)
	}
	for len(remaining) > 0 {
		next := chooseNext(r.Body, remaining, bound, cat)
		lower(next)
		remaining = removeIdx(remaining, next)
	}
	if len(pending) > 0 {
		// A comparison variable occurs in no body atom: the interpreter
		// filters every binding, so the variant derives nothing.
		v.empty = true
	}

	// Head emission. Unbound head or Skolem-argument variables make the
	// rule unsafe; the error is raised on the first body match, matching
	// the interpreter.
	markUnsafe := func(name string) {
		if v.unsafeVar == "" {
			v.unsafeVar = name
		}
	}
	v.head = make([]ruleHeadOp, len(r.Head))
	for i, h := range r.Head {
		switch {
		case h.Skolem != nil:
			cs := &compiledSkolem{name: h.Skolem.Name, argSlots: make([]int, len(h.Skolem.Args))}
			for j, a := range h.Skolem.Args {
				if !bound[a] {
					markUnsafe(a)
					continue
				}
				cs.argSlots[j] = slots[a]
			}
			v.head[i] = ruleHeadOp{skolem: cs, slot: -1}
		case h.Term.IsConst():
			v.head[i] = ruleHeadOp{slot: -1, constVal: h.Term.Lex}
		default:
			if !bound[h.Term.Lex] {
				markUnsafe(h.Term.Lex)
				v.head[i] = ruleHeadOp{slot: -1}
				continue
			}
			v.head[i] = ruleHeadOp{slot: slots[h.Term.Lex]}
		}
	}
	return v
}

// idbRel is a per-run derived relation: a growing tuple set with hash
// indexes on the plan's probe columns, maintained incrementally on insert
// (the interpreter instead invalidates and rebuilds indexes every round).
type idbRel struct {
	arity  int
	tuples []storage.Tuple
	seen   map[string]bool
	idx    map[int]map[string][]int
}

func newIDBRel(arity int, probeCols []int) *idbRel {
	r := &idbRel{arity: arity, seen: make(map[string]bool), idx: make(map[int]map[string][]int, len(probeCols))}
	for _, col := range probeCols {
		r.idx[col] = make(map[string][]int)
	}
	return r
}

// insert adds the tuple and updates the maintained indexes, reporting
// whether it was new. The tuple is not copied: callers pass fresh or
// read-only tuples.
func (r *idbRel) insert(t storage.Tuple) bool {
	return r.insertKeyed(derivedTuple{t: t, key: t.Key()})
}

// derivedTuple is one buffered derivation: the tuple plus its dedup key,
// computed once at emission and reused by the merge.
type derivedTuple struct {
	t   storage.Tuple
	key string
}

// insertKeyed is insert with the key already computed.
func (r *idbRel) insertKeyed(d derivedTuple) bool {
	if r.seen[d.key] {
		return false
	}
	r.seen[d.key] = true
	pos := len(r.tuples)
	r.tuples = append(r.tuples, d.t)
	for col, m := range r.idx {
		m[d.t[col]] = append(m[d.t[col]], pos)
	}
	return true
}

// fixTask is one rule-variant execution scheduled in a round.
type fixTask struct {
	rule  *compiledRule
	v     *ruleVariant
	delta []storage.Tuple // nil for full variants
}

// materializeIDB inserts the derived relations into db and returns it.
func materializeIDB(db *storage.Database, idb map[string]*idbRel) (*storage.Database, error) {
	for pred, ir := range idb {
		rel, err := db.Ensure(pred, ir.arity)
		if err != nil {
			return nil, err
		}
		for _, t := range ir.tuples {
			rel.Insert(t)
		}
	}
	return db, nil
}

// run executes the semi-naive loop: round 0 fires every rule's full plan;
// each later round fires only the delta variants whose predicate gained
// tuples, with the delta at the join root. New tuples are buffered during a
// round and merged (with dedup against the accumulated relation) after it,
// so relations are immutable while any variant is executing.
//
// gs and lim are the governance hooks (nil/zero for unbounded runs):
// cancellation is polled inside the variant loops and at every round
// barrier, and the round/derivation budgets are checked where the stats are
// consistent — so an aborted run returns its partial stats with the error.
func (cp *CompiledProgram) run(edb *storage.Database, workers int, gs *guardState, lim Limits) (map[string]*idbRel, FixpointStats, error) {
	var stats FixpointStats
	idb := make(map[string]*idbRel, len(cp.idbArity))
	for pred, arity := range cp.idbArity {
		ir := newIDBRel(arity, cp.idbProbeCols[pred])
		// A derived predicate may coincide with an EDB relation; its facts
		// seed the accumulated set (the interpreter derives into a clone of
		// that relation).
		if rel := edb.Relation(pred); rel != nil {
			if rel.Arity() != arity {
				return nil, stats, fmt.Errorf("storage: relation %s has arity %d, requested %d", pred, rel.Arity(), arity)
			}
			for _, t := range rel.Tuples() {
				ir.insert(t)
			}
		}
		idb[pred] = ir
	}

	var tasks []fixTask
	for i := range cp.rules {
		r := &cp.rules[i]
		if !r.full.empty {
			tasks = append(tasks, fixTask{rule: r, v: &r.full})
		}
	}
	for len(tasks) > 0 {
		if err := gs.barrier(); err != nil {
			return nil, stats, err
		}
		if err := checkFixpointBudget(stats, lim); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		bufs, err := cp.runRound(edb, idb, tasks, workers, gs)
		if err != nil {
			return nil, stats, err
		}
		delta := make(map[string][]storage.Tuple)
		for i, buf := range bufs {
			ir := idb[tasks[i].rule.headPred]
			for _, d := range buf {
				if ir.insertKeyed(d) {
					delta[tasks[i].rule.headPred] = append(delta[tasks[i].rule.headPred], d.t)
					stats.Derived++
				}
			}
		}
		tasks = tasks[:0]
		for i := range cp.rules {
			r := &cp.rules[i]
			for j := range r.deltas {
				v := &r.deltas[j]
				if v.empty {
					continue
				}
				if d := delta[v.deltaPred]; len(d) > 0 {
					tasks = append(tasks, fixTask{rule: r, v: v, delta: d})
				}
			}
		}
	}
	if err := gs.failure(); err != nil {
		return nil, stats, err
	}
	return idb, stats, nil
}

// checkFixpointBudget enforces the round and derivation budgets at a round
// barrier (stats are consistent there; a run may overshoot MaxDerived by at
// most the final round's derivations).
func checkFixpointBudget(stats FixpointStats, lim Limits) error {
	if lim.MaxRounds > 0 && stats.Iterations >= lim.MaxRounds {
		return fmt.Errorf("datalog: fixpoint exceeded %d round(s): %w", lim.MaxRounds, ErrBudgetExceeded)
	}
	if lim.MaxDerived > 0 && stats.Derived > lim.MaxDerived {
		return fmt.Errorf("datalog: fixpoint derived more than %d tuple(s): %w", lim.MaxDerived, ErrBudgetExceeded)
	}
	return nil
}

// runRound executes one round's tasks, each into its own buffer. With
// workers > 1 the tasks run concurrently: they read the round-stable
// relations and the (read-only until merge) dedup sets, and write nothing
// shared.
func (cp *CompiledProgram) runRound(edb *storage.Database, idb map[string]*idbRel, tasks []fixTask, workers int, gs *guardState) ([][]derivedTuple, error) {
	return runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
		return cp.runVariant(edb, idb, tasks[i], gs.child())
	})
}

// runTaskSet executes n independent task bodies across up to workers
// goroutines, collecting each body's derivation buffer. Bodies only read
// round-stable state, so the fan-out needs no locks; the fixpoint rounds
// and the maintenance rounds (Apply) share it.
func runTaskSet(n, workers int, run func(int) ([]derivedTuple, error)) ([][]derivedTuple, error) {
	bufs := make([][]derivedTuple, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if bufs[i], err = run(i); err != nil {
				return nil, err
			}
		}
		return bufs, nil
	}
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				bufs[i], errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// runVariant enumerates one variant's body matches and buffers the derived
// head tuples, deduplicated against both the buffer and the accumulated
// relation (reads only — inserts happen at the merge).
func (cp *CompiledProgram) runVariant(edb *storage.Database, idb map[string]*idbRel, t fixTask, g *evalGuard) ([]derivedTuple, error) {
	v := t.v
	srcs := cp.resolveVariant(edb, idb, t)
	comp := compiledComponent{steps: v.steps}
	accum := idb[t.rule.headPred]
	frame := make([]string, v.numSlots)
	var buf []derivedTuple
	var bufSeen map[string]bool
	var evalErr error
	joinSteps(&comp, srcs, 0, frame, g, func(frame []string) bool {
		if v.unsafeVar != "" {
			evalErr = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
			return false
		}
		tuple := buildHeadTuple(v.head, frame)
		k := tuple.Key()
		if accum.seen[k] || bufSeen[k] {
			return true
		}
		if bufSeen == nil {
			bufSeen = make(map[string]bool)
		}
		bufSeen[k] = true
		buf = append(buf, derivedTuple{t: tuple, key: k})
		// Intra-round backstop for the derivation budget: the authoritative
		// check runs at the round barrier, but a single variant exploding
		// past the whole budget stops here instead of finishing the round.
		if g.emitRow() {
			return false
		}
		return true
	})
	return buf, evalErr
}

// resolveVariant binds a variant's steps to their candidate sources: the
// delta slice for the delta-root step, the per-call IDB relation (tuples
// plus maintained probe index) for derived predicates, and the EDB relation
// (with its frozen column index when built) otherwise.
func (cp *CompiledProgram) resolveVariant(edb *storage.Database, idb map[string]*idbRel, t fixTask) []stepSrc {
	srcs := make([]stepSrc, len(t.v.steps))
	for j := range t.v.steps {
		s := &t.v.steps[j]
		if j == 0 && t.delta != nil {
			srcs[j].tuples = t.delta // deltas are scanned: they are the small side
			continue
		}
		if ir, ok := idb[s.pred]; ok {
			srcs[j].tuples = ir.tuples
			if s.probeCol >= 0 {
				srcs[j].idx = ir.idx[s.probeCol]
			}
			continue
		}
		rel := edb.Relation(s.pred)
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

// buildHeadTuple emits the derived tuple for a complete frame.
func buildHeadTuple(head []ruleHeadOp, frame []string) storage.Tuple {
	t := make(storage.Tuple, len(head))
	for i, h := range head {
		switch {
		case h.skolem != nil:
			parts := make([]string, len(h.skolem.argSlots))
			for j, s := range h.skolem.argSlots {
				parts[j] = frame[s]
			}
			t[i] = skolemValue(h.skolem.name, parts)
		case h.slot >= 0:
			t[i] = frame[h.slot]
		default:
			t[i] = h.constVal
		}
	}
	return t
}

// freeze builds exactly the EDB column indexes the program's probes need, so
// Run's private clone gets index candidates instead of scan fallbacks
// before the first round.
func (cp *CompiledProgram) freeze(edb *storage.Database) {
	for i := range cp.rules {
		r := &cp.rules[i]
		variants := []*ruleVariant{&r.full}
		for j := range r.deltas {
			variants = append(variants, &r.deltas[j])
		}
		for _, v := range variants {
			for j := range v.steps {
				s := &v.steps[j]
				if s.probeCol < 0 {
					continue
				}
				if _, idbPred := cp.idbArity[s.pred]; idbPred {
					continue
				}
				if rel := edb.Relation(s.pred); rel != nil {
					rel.BuildColumnIndex(s.probeCol)
				}
			}
		}
	}
}

// Describe renders the compiled program for humans: every rule with its full
// plan and delta variants, one join step per line.
func (cp *CompiledProgram) Describe() string {
	var sb strings.Builder
	for i := range cp.rules {
		r := &cp.rules[i]
		fmt.Fprintf(&sb, "rule %d: %s\n", i, r.src.String())
		describeVariant(&sb, "full", &r.full)
		for j := range r.deltas {
			v := &r.deltas[j]
			describeVariant(&sb, fmt.Sprintf("Δ%s@%d", v.deltaPred, v.deltaPos), v)
		}
		for j := range r.edbDeltas {
			v := &r.edbDeltas[j]
			describeVariant(&sb, fmt.Sprintf("Δ%s@%d (edb)", v.deltaPred, v.deltaPos), v)
		}
	}
	return sb.String()
}

func describeVariant(sb *strings.Builder, label string, v *ruleVariant) {
	fmt.Fprintf(sb, "  %s", label)
	if v.empty {
		sb.WriteString("  (empty: unsatisfiable at compile time)\n")
		return
	}
	if v.unsafeVar != "" {
		fmt.Fprintf(sb, "  (unsafe: %s unbound)", v.unsafeVar)
	}
	sb.WriteByte('\n')
	for j := range v.steps {
		describeStep(sb, "    ", j, &v.steps[j], j == 0 && v.deltaPos >= 0)
	}
}

// Eval computes the fixpoint of the program over the EDB and returns a
// database containing the EDB relations plus all derived (IDB) relations;
// edb is not modified. It compiles the rules (CompileProgram) and runs them
// once: applications evaluating the same program repeatedly should compile
// once and reuse the CompiledProgram, as the serving engine's plan LRU
// does.
func (p *Program) Eval(edb *storage.Database) (*storage.Database, error) {
	cp, err := CompileProgram(p, cost.NewRowCatalog(edb))
	if err != nil {
		return nil, err
	}
	return cp.Run(context.Background(), edb, RunOpts{})
}
