package datalog

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Non-monotone incremental maintenance: deletions and mixed update batches.
//
// Inserting into a materialized program is monotone — every new derivation
// is found by a delta plan and merged (ivm.go). Deleting is not: a derived
// tuple must disappear exactly when its *last* derivation does, which set
// semantics cannot see. Two classical algorithms close the gap, selected
// per compiled program:
//
//   - counting, for flat programs (no rule body mentions a derived
//     predicate — the shape of materialized view sets): every derived tuple
//     carries its exact derivation multiplicity. Rules are re-compiled into
//     counting variants that keep every body variable, so one emission is
//     one distinct derivation; delta variants make the per-batch counts
//     exact by first-changed-occurrence attribution (a derivation touching
//     k changed tuples is counted once, at its first changed body
//     occurrence). A deletion decrements, and the tuple is retracted when
//     its count reaches zero — no re-derivation queries at all.
//
//   - DRed (delete-and-rederive), for everything else (recursive programs,
//     multi-level rules such as inverse-rules output, and programs whose
//     derived predicates coincide with base relations): an over-deletion
//     fixpoint runs the same delta variants as insert propagation, over
//     the still-intact pre-delete database, marking everything that *might*
//     have lost support; the marked tuples are physically removed; then a
//     bounded semi-naive pass re-derives the survivors — round 0 runs each
//     rule rooted at its own head (fed by the over-deleted set), later
//     rounds propagate re-insertions through the ordinary IDB delta
//     variants until quiescence.
//
// Apply is the single entry point: a mixed batch (deletes applied before
// inserts) that is atomic — every mutation is recorded in an operation
// journal and rolled back on error or panic, so a canceled or
// budget-tripped batch leaves the database exactly as it was.

// UpdateResult reports one applied mixed batch: what actually changed in
// the base relations and in the derived extents. Replaying the result into
// a mirror must apply retractions before derivations (an insert in the same
// batch may legitimately re-derive a tuple the delete phase retracted).
type UpdateResult struct {
	// BaseInserted / BaseDeleted are the base tuples that were actually
	// fresh / actually present, per predicate.
	BaseInserted map[string][]storage.Tuple
	BaseDeleted  map[string][]storage.Tuple
	// Derived / Retracted are the net derived-extent changes.
	Derived   map[string][]storage.Tuple
	Retracted map[string][]storage.Tuple
	Stats     FixpointStats
}

// MaintState is the per-maintained-database deletion state of a compiled
// program: the baseline fact keys (derived predicates seeded from
// same-named base relations at materialization — their support is the
// relation itself and can never be deleted), and, for flat programs, the
// lazily built derivation counts. Build one with NewMaintState over the
// *pre-materialization* base database and pass it to every Apply
// call against the same maintained database. A nil state is accepted
// (empty baseline, counts rebuilt per call) but wasteful for flat programs.
type MaintState struct {
	baseline map[string]map[string]bool
	// counts maps derived predicate -> tuple key -> exact derivation count
	// (baseline facts contribute one). Built on the first deletion by one
	// counting enumeration of every rule; nil until then.
	counts map[string]map[string]int
	ready  bool
}

// NewMaintState captures the deletion state of a database about to be
// materialized: the facts of every derived predicate that already exist as
// base facts. Call it on the base database before CompiledProgram.Run.
func (cp *CompiledProgram) NewMaintState(base *storage.Database) *MaintState {
	st := &MaintState{}
	for pred, arity := range cp.idbArity {
		rel := base.Relation(pred)
		if rel == nil || rel.Arity() != arity || rel.Len() == 0 {
			continue
		}
		keys := make(map[string]bool, rel.Len())
		for _, t := range rel.Tuples() {
			keys[t.Key()] = true
		}
		if st.baseline == nil {
			st.baseline = make(map[string]map[string]bool)
		}
		st.baseline[pred] = keys
	}
	return st
}

// CountsReady reports whether the flat-program derivation counts have been
// built (they are built lazily, on the first deletion).
func (st *MaintState) CountsReady() bool { return st != nil && st.ready }

// BaselineKeys exports the deletion baseline for persistence: per derived
// predicate, the keys (Tuple.Key form) of facts that pre-existed as base
// facts when the program was materialized. The derivation counts are
// deliberately not exported — they are a cache rebuilt lazily from the
// database on the first deletion, so a state restored from these keys is
// exactly as capable as the original.
func (st *MaintState) BaselineKeys() map[string][]string {
	if st == nil || st.baseline == nil {
		return nil
	}
	out := make(map[string][]string, len(st.baseline))
	for pred, keys := range st.baseline {
		ks := make([]string, 0, len(keys))
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out[pred] = ks
	}
	return out
}

// RestoreMaintState rebuilds the deletion state a NewMaintState call
// captured, from keys previously exported by BaselineKeys — the recovery
// path, where the pre-materialization base database no longer exists but
// its view-named facts were persisted. Keys naming predicates the program
// does not derive are dropped.
func (cp *CompiledProgram) RestoreMaintState(keys map[string][]string) *MaintState {
	st := &MaintState{}
	for pred, ks := range keys {
		if _, ok := cp.idbArity[pred]; !ok || len(ks) == 0 {
			continue
		}
		m := make(map[string]bool, len(ks))
		for _, k := range ks {
			m[k] = true
		}
		if st.baseline == nil {
			st.baseline = make(map[string]map[string]bool)
		}
		st.baseline[pred] = m
	}
	return st
}

func (st *MaintState) isBaseline(pred, key string) bool {
	if st == nil || st.baseline == nil {
		return false
	}
	return st.baseline[pred][key]
}

// initCounts builds the exact derivation counts by one counting enumeration
// of every rule over the current database — the lazy, read-only
// initialization paid on the first deletion.
func (st *MaintState) initCounts(cp *CompiledProgram, db *storage.Database, workers int, gs *guardState) error {
	res, err := cp.runCountVariants(db, nil, workers, gs)
	if err != nil {
		return err
	}
	st.counts = make(map[string]map[string]int, len(cp.idbArity))
	for pred := range cp.idbArity {
		st.counts[pred] = make(map[string]int)
	}
	for pred, m := range res {
		cm := st.counts[pred]
		for key, ct := range m {
			cm[key] += ct.n
		}
	}
	for pred, keys := range st.baseline {
		cm := st.counts[pred]
		if cm == nil {
			continue
		}
		for key := range keys {
			cm[key]++
		}
	}
	st.ready = true
	return nil
}

// commit applies a batch's count changes after every mutation succeeded.
func (st *MaintState) commit(decs, incs map[string]map[string]*countedTuple) {
	for pred, m := range decs {
		cm := st.counts[pred]
		if cm == nil {
			continue
		}
		for key, ct := range m {
			if n := cm[key] - ct.n; n > 0 {
				cm[key] = n
			} else {
				delete(cm, key)
			}
		}
	}
	for pred, m := range incs {
		cm := st.counts[pred]
		if cm == nil {
			cm = make(map[string]int)
			st.counts[pred] = cm
		}
		for key, ct := range m {
			cm[key] += ct.n
		}
	}
}

// ---- counting plan variants ----

// recipeCol rebuilds one column of a body occurrence from the frame.
type recipeCol struct {
	slot     int // -1 → constant
	constVal string
}

// occRecipe rebuilds the tuple one body occurrence matched — possible in a
// counting variant because every body variable holds a slot.
type occRecipe struct {
	pred string
	cols []recipeCol
}

// countVariant is a rule compiled for derivation counting: like ruleVariant
// but with every body variable kept, so the executor emits once per
// distinct body assignment — no don't-care elision, no existential
// early-exit pruning, no step dedup. prior holds the rebuild recipes of the
// body occurrences strictly before deltaPos (in body order): the
// first-changed-occurrence filter rejects a match whose earlier occurrence
// already used a changed tuple, making the batch delta an exact multiset.
type countVariant struct {
	deltaPos  int
	deltaPred string
	steps     []compiledStep
	head      []ruleHeadOp
	numSlots  int
	unsafeVar string
	empty     bool
	prior     []occRecipe
}

// supportVariant is a rule compiled for DRed re-derivation: the rule rooted
// at its own head atom, fed by the over-deleted tuples (rooted == true), or
// a marker to fall back to the filtered full variant when the head contains
// Skolem terms and cannot be expressed as a body atom.
type supportVariant struct {
	rooted bool
	v      ruleVariant
}

// compileDeletionSupport lowers the deletion-side plans of an IVM program:
// counting variants for flat programs, head-rooted support variants for the
// DRed re-derivation pass otherwise.
func (cp *CompiledProgram) compileDeletionSupport(p *Program, cat *cost.Catalog) {
	cp.flat = true
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if _, idb := cp.idbArity[a.Pred]; idb {
				cp.flat = false
			}
		}
	}
	if cp.flat {
		cp.countFull = make([]countVariant, len(p.Rules))
		cp.countDeltas = make([][]countVariant, len(p.Rules))
		for i, r := range p.Rules {
			cp.countFull[i] = compileCountVariant(r, -1, cat)
			cvs := make([]countVariant, len(r.Body))
			for pos := range r.Body {
				cvs[pos] = compileCountVariant(r, pos, cat)
			}
			cp.countDeltas[i] = cvs
		}
		return
	}
	cp.supports = make([]supportVariant, len(p.Rules))
	for i, r := range p.Rules {
		cp.supports[i] = compileSupportVariant(r, cat)
	}
}

// compileCountVariant lowers one rule into a counting variant: the same
// join-order and access-path machinery as compileRuleVariant, with every
// body variable kept in the frame.
func compileCountVariant(r Rule, deltaPos int, cat *cost.Catalog) countVariant {
	v := countVariant{deltaPos: deltaPos}
	if deltaPos >= 0 {
		v.deltaPred = r.Body[deltaPos].Pred
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
	keep := func(cq.Term) bool { return true }

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
		v.empty = true
	}

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

	for pos := 0; pos < deltaPos; pos++ {
		a := r.Body[pos]
		rc := occRecipe{pred: a.Pred, cols: make([]recipeCol, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar() {
				rc.cols[i] = recipeCol{slot: slots[t.Lex]}
			} else {
				rc.cols[i] = recipeCol{slot: -1, constVal: t.Lex}
			}
		}
		v.prior = append(v.prior, rc)
	}
	return v
}

// compileSupportVariant lowers the DRed round-0 re-derivation plan of one
// rule: the rule with its own head prepended as the root body atom, so the
// over-deleted set feeds the root and the remaining atoms check whether a
// derivation survives in the post-removal database.
func compileSupportVariant(r Rule, cat *cost.Catalog) supportVariant {
	args := make([]cq.Term, len(r.Head))
	for i, h := range r.Head {
		if h.Skolem != nil {
			return supportVariant{} // head not expressible as an atom: filtered full variant
		}
		args[i] = h.Term
	}
	sr := Rule{
		HeadPred:    r.HeadPred,
		Head:        r.Head,
		Body:        append([]cq.Atom{{Pred: r.HeadPred, Args: args}}, r.Body...),
		Comparisons: r.Comparisons,
	}
	return supportVariant{rooted: true, v: compileRuleVariant(sr, 0, cat)}
}

// ---- counting execution ----

// countedTuple is one derived tuple with the derivations a counting run
// attributed to it.
type countedTuple struct {
	t storage.Tuple
	n int
}

// runCountVariants enumerates derivation counts per derived tuple. With
// batch == nil it runs every rule's full counting variant — the exact
// counts of the current database. With a batch it runs the delta counting
// variants whose root predicate changed, over db, counting only matches
// whose earlier body occurrences avoid the batch (first-changed-occurrence
// attribution): over the post-insert database this is the exact count
// increment of the batch, over the pre-delete database the exact decrement.
func (cp *CompiledProgram) runCountVariants(db *storage.Database, batch map[string][]storage.Tuple, workers int, gs *guardState) (map[string]map[string]*countedTuple, error) {
	type countTask struct {
		pred  string
		v     *countVariant
		delta []storage.Tuple
	}
	var tasks []countTask
	if batch == nil {
		for i := range cp.rules {
			if v := &cp.countFull[i]; !v.empty {
				tasks = append(tasks, countTask{pred: cp.rules[i].headPred, v: v})
			}
		}
	} else {
		for i := range cp.rules {
			for j := range cp.countDeltas[i] {
				v := &cp.countDeltas[i][j]
				if v.empty {
					continue
				}
				if d := batch[v.deltaPred]; len(d) > 0 {
					tasks = append(tasks, countTask{pred: cp.rules[i].headPred, v: v, delta: d})
				}
			}
		}
	}
	if len(tasks) == 0 {
		return nil, nil
	}
	var batchKeys map[string]map[string]bool
	if batch != nil {
		batchKeys = make(map[string]map[string]bool, len(batch))
		for pred, ts := range batch {
			ks := make(map[string]bool, len(ts))
			for _, t := range ts {
				ks[t.Key()] = true
			}
			batchKeys[pred] = ks
		}
	}
	results := make([]map[string]*countedTuple, len(tasks))
	errs := make([]error, len(tasks))
	runTasks(len(tasks), workers, func(i int) {
		t := tasks[i]
		results[i], errs[i] = cp.countVariantRun(db, t.v, t.delta, batchKeys, gs.child())
	})
	if err := gs.failure(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := make(map[string]map[string]*countedTuple)
	for i, res := range results {
		if len(res) == 0 {
			continue
		}
		dst := merged[tasks[i].pred]
		if dst == nil {
			merged[tasks[i].pred] = res
			continue
		}
		for key, ct := range res {
			if prev := dst[key]; prev != nil {
				prev.n += ct.n
			} else {
				dst[key] = ct
			}
		}
	}
	return merged, nil
}

// runTasks executes fn(0..n-1) across up to workers goroutines, pulling task
// indexes from a shared atomic counter. workers <= 1 runs inline.
func runTasks(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// countVariantRun enumerates one counting variant's matches, returning the
// per-tuple derivation counts it attributes.
func (cp *CompiledProgram) countVariantRun(db *storage.Database, v *countVariant, delta []storage.Tuple, batchKeys map[string]map[string]bool, g *evalGuard) (map[string]*countedTuple, error) {
	srcs := make([]stepSrc, len(v.steps))
	for j := range v.steps {
		s := &v.steps[j]
		if j == 0 && delta != nil {
			srcs[j].tuples = delta
			continue
		}
		rel := db.Relation(s.pred)
		if rel == nil {
			continue
		}
		srcs[j].tuples = rel.Tuples()
		if s.probeCol >= 0 {
			if idx, ok := rel.ColumnIndex(s.probeCol); ok {
				srcs[j].idx = idx
			}
		}
	}
	// Only earlier occurrences of predicates actually in the batch can
	// steal attribution; resolve those checks once.
	type priorCheck struct {
		keys map[string]bool
		cols []recipeCol
	}
	var checks []priorCheck
	for _, rc := range v.prior {
		if ks := batchKeys[rc.pred]; ks != nil {
			checks = append(checks, priorCheck{keys: ks, cols: rc.cols})
		}
	}
	comp := compiledComponent{steps: v.steps}
	frame := make([]string, v.numSlots)
	out := make(map[string]*countedTuple)
	var keyBuf []byte
	var evalErr error
	joinSteps(&comp, srcs, 0, frame, g, func(frame []string) bool {
		if v.unsafeVar != "" {
			evalErr = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
			return false
		}
		for _, pc := range checks {
			keyBuf = keyBuf[:0]
			for i, c := range pc.cols {
				if i > 0 {
					keyBuf = append(keyBuf, 0x1f)
				}
				if c.slot >= 0 {
					keyBuf = append(keyBuf, frame[c.slot]...)
				} else {
					keyBuf = append(keyBuf, c.constVal...)
				}
			}
			if pc.keys[string(keyBuf)] {
				return true // counted at the earlier changed occurrence
			}
		}
		tuple := buildHeadTuple(v.head, frame)
		k := tuple.Key()
		if ct := out[k]; ct != nil {
			ct.n++
		} else {
			out[k] = &countedTuple{t: tuple, n: 1}
		}
		return true
	})
	return out, evalErr
}

// ---- the update journal ----

// updateJournal is the rollback log of one mixed batch. The delete phase
// records each successful removal; the insert phase — always last, and
// insert-only — is covered by one length snapshot per relation
// (markInserts), since swap-filled removals never happen after it.
// rollback restores the database exactly: truncate the inserts, drop
// batch-created relations, re-insert the removals.
type updateJournal struct {
	db      *storage.Database
	removed []journalRemoval
	marks   map[string]int
}

type journalRemoval struct {
	pred string
	t    storage.Tuple
}

func (j *updateJournal) remove(rel *storage.Relation, pred string, t storage.Tuple) bool {
	if rel == nil || !rel.Remove(t) {
		return false
	}
	j.removed = append(j.removed, journalRemoval{pred: pred, t: t})
	return true
}

// markInserts snapshots every relation's length at the start of the
// insert-only tail of the batch.
func (j *updateJournal) markInserts() {
	j.marks = make(map[string]int)
	for _, pred := range j.db.Predicates() {
		j.marks[pred] = j.db.Relation(pred).Len()
	}
}

func (j *updateJournal) rollback() {
	if j.marks != nil {
		for _, pred := range j.db.Predicates() {
			if n, ok := j.marks[pred]; ok {
				j.db.Relation(pred).TruncateTo(n)
			} else {
				j.db.Drop(pred)
			}
		}
	}
	for i := len(j.removed) - 1; i >= 0; i-- {
		op := j.removed[i]
		if rel := j.db.Relation(op.pred); rel != nil {
			rel.Insert(op.t)
		}
	}
}

// ---- mixed batch application ----

// Apply applies a mixed batch — deletions, then insertions — to a
// maintained database (the database Run returned, or one maintained by
// earlier calls), keeping every derived extent exact. Insert-only batches
// propagate monotonically until the first deletion builds the flat
// derivation counts; from then on, and for every batch with deletions,
// flat programs take the counting path and the rest take DRed (see the
// comment at the top of this file). Predicates derived by the program are
// rejected on both sides; deletions of absent tuples and insertions of
// present ones are no-ops. st carries the deletion state across batches
// (NewMaintState); nil is accepted but rebuilds flat counts every call.
// Args and Unsorted in o are ignored.
//
// The batch is atomic: it is validated before anything is mutated, and
// on any later error — cancellation (ErrCanceled), a tripped budget
// (ErrBudgetExceeded) — the journal rolls db back to its exact pre-batch
// state before the error returns. A panic rolls back, then re-panics.
func (cp *CompiledProgram) Apply(ctx context.Context, db *storage.Database, st *MaintState, inserts, deletes map[string][]storage.Tuple, o RunOpts) (res *UpdateResult, err error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	workers, lim, gs := o.Workers, o.Limits, fixpointGuard(ctx, o.Limits)
	if !cp.ivm {
		return nil, ErrNotMaintenance
	}
	if err := cp.validateDeletes(db, deletes); err != nil {
		return nil, err
	}
	if err := cp.validateInserts(db, inserts); err != nil {
		return nil, err
	}

	// Effective deletions: present tuples only, deduplicated per predicate.
	delEff := make(map[string][]storage.Tuple)
	for pred, tuples := range deletes {
		rel := db.Relation(pred)
		if rel == nil {
			continue
		}
		dedup := make(map[string]bool, len(tuples))
		for _, t := range tuples {
			k := t.Key()
			if dedup[k] || !rel.ContainsKey(k) {
				continue
			}
			dedup[k] = true
			delEff[pred] = append(delEff[pred], t)
		}
	}

	j := &updateJournal{db: db}
	defer func() {
		if r := recover(); r != nil {
			j.rollback()
			panic(r)
		}
	}()

	// Once counts exist they must be maintained by every batch; before the
	// first deletion, insert-only batches keep the plain monotone path.
	counting := cp.flat && (st.CountsReady() || len(delEff) > 0)
	if !counting && len(delEff) == 0 {
		j.markInserts()
		fresh, derived, stats, err := cp.applyInserts(db, inserts, workers, gs, lim)
		if err != nil {
			j.rollback()
			return nil, err
		}
		return &UpdateResult{BaseInserted: fresh, Derived: derived, Stats: stats}, nil
	}

	if st == nil {
		st = &MaintState{}
	}
	if cp.flat {
		res, err = cp.applyCounting(db, st, j, inserts, delEff, workers, gs, lim)
	} else {
		res, err = cp.applyDRed(db, st, j, inserts, delEff, workers, gs, lim)
	}
	if err != nil {
		j.rollback()
		return nil, err
	}
	res.BaseDeleted = delEff
	return res, nil
}

// validateDeletes rejects deletions into derived relations and tuples of
// the wrong width — before anything is mutated.
func (cp *CompiledProgram) validateDeletes(db *storage.Database, deletes map[string][]storage.Tuple) error {
	for pred, tuples := range deletes {
		if _, idb := cp.idbArity[pred]; idb {
			return fmt.Errorf("datalog: cannot delete from derived relation %s", pred)
		}
		rel := db.Relation(pred)
		if rel == nil {
			continue // deleting from a missing relation is a no-op
		}
		for _, t := range tuples {
			if len(t) != rel.Arity() {
				return &storage.ArityError{Pred: pred, Want: rel.Arity(), Got: len(t)}
			}
		}
	}
	return nil
}

// validateInserts rejects insertions into derived relations and tuples of
// the wrong width — before anything is mutated.
func (cp *CompiledProgram) validateInserts(db *storage.Database, updates map[string][]storage.Tuple) error {
	for pred, tuples := range updates {
		if _, idb := cp.idbArity[pred]; idb {
			return fmt.Errorf("datalog: cannot insert into derived relation %s", pred)
		}
		want := -1
		if rel := db.Relation(pred); rel != nil {
			want = rel.Arity()
		}
		for _, t := range tuples {
			if want < 0 {
				want = len(t)
			}
			if len(t) != want {
				return &storage.ArityError{Pred: pred, Want: want, Got: len(t)}
			}
		}
	}
	return nil
}

// applyCounting is the flat-program batch path: exact decrements over the
// pre-delete database, retraction at count zero, then insertion and exact
// increments over the post-insert database. Counts are committed only
// after every mutation succeeded, so a rolled-back batch never skews them.
func (cp *CompiledProgram) applyCounting(db *storage.Database, st *MaintState, j *updateJournal, inserts, delEff map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (*UpdateResult, error) {
	res := &UpdateResult{
		Derived:   make(map[string][]storage.Tuple),
		Retracted: make(map[string][]storage.Tuple),
	}
	if !st.ready {
		if err := st.initCounts(cp, db, workers, gs); err != nil {
			return nil, err
		}
	}
	var decs map[string]map[string]*countedTuple
	if len(delEff) > 0 {
		var err error
		decs, err = cp.runCountVariants(db, delEff, workers, gs)
		if err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		for pred, tuples := range delEff {
			rel := db.Relation(pred)
			for _, t := range tuples {
				j.remove(rel, pred, t)
			}
		}
		for pred, m := range decs {
			rel := db.Relation(pred)
			for key, ct := range m {
				if st.counts[pred][key]-ct.n <= 0 && !st.isBaseline(pred, key) {
					if j.remove(rel, pred, ct.t) {
						res.Retracted[pred] = append(res.Retracted[pred], ct.t)
					}
				}
			}
		}
	}
	j.markInserts()
	fresh, err := insertBase(db, inserts)
	if err != nil {
		return nil, err
	}
	res.BaseInserted = fresh
	var incs map[string]map[string]*countedTuple
	if len(fresh) > 0 {
		var err error
		incs, err = cp.runCountVariants(db, fresh, workers, gs)
		if err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		for pred, m := range incs {
			rel, err := db.Ensure(pred, cp.idbArity[pred])
			if err != nil {
				return nil, err
			}
			for key, ct := range m {
				if !rel.ContainsKey(key) {
					rel.Insert(ct.t)
					res.Derived[pred] = append(res.Derived[pred], ct.t)
					res.Stats.Derived++
				}
			}
		}
	}
	if lim.MaxDerived > 0 && res.Stats.Derived > lim.MaxDerived {
		return nil, fmt.Errorf("datalog: maintenance derived more than %d tuple(s): %w", lim.MaxDerived, ErrBudgetExceeded)
	}
	st.commit(decs, incs)
	return res, nil
}

// applyDRed is the non-flat batch path: over-delete via the delta variants
// over the intact pre-delete database, remove, re-derive survivors with a
// bounded semi-naive pass, then propagate the insertions through the
// ordinary monotone machinery.
func (cp *CompiledProgram) applyDRed(db *storage.Database, st *MaintState, j *updateJournal, inserts, delEff map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (*UpdateResult, error) {
	res := &UpdateResult{Retracted: make(map[string][]storage.Tuple)}
	od, err := cp.overDelete(db, st, delEff, workers, gs, lim, &res.Stats)
	if err != nil {
		return nil, err
	}
	for pred, tuples := range delEff {
		rel := db.Relation(pred)
		for _, t := range tuples {
			j.remove(rel, pred, t)
		}
	}
	for pred, m := range od {
		rel := db.Relation(pred)
		for _, t := range m {
			j.remove(rel, pred, t)
		}
	}
	j.markInserts()
	if err := cp.rederive(db, od, workers, gs, lim, &res.Stats); err != nil {
		return nil, err
	}
	for pred, m := range od {
		for _, t := range m {
			res.Retracted[pred] = append(res.Retracted[pred], t)
		}
	}
	fresh, derived, istats, err := cp.applyInserts(db, inserts, workers, gs, lim)
	if err != nil {
		return nil, err
	}
	res.BaseInserted = fresh
	res.Derived = derived
	res.Stats.Iterations += istats.Iterations
	res.Stats.Derived += istats.Derived
	return res, nil
}

// overDelete computes the over-deleted set: the fixpoint of "some
// derivation of this present tuple uses a deleted or over-deleted tuple",
// seeded by the effective base deletions and evaluated — like every DRed
// over-approximation — against the still-intact pre-delete database.
// Baseline facts are never over-deleted: their support is the base
// relation itself, and deletions into derived predicates are rejected.
func (cp *CompiledProgram) overDelete(db *storage.Database, st *MaintState, delEff map[string][]storage.Tuple, workers int, gs *guardState, lim Limits, stats *FixpointStats) (map[string]map[string]storage.Tuple, error) {
	od := make(map[string]map[string]storage.Tuple)
	cur := delEff
	for len(cur) > 0 {
		var tasks []maintTask
		for i := range cp.rules {
			r := &cp.rules[i]
			for _, variants := range [2][]ruleVariant{r.edbDeltas, r.deltas} {
				for j := range variants {
					v := &variants[j]
					if v.empty {
						continue
					}
					if d := cur[v.deltaPred]; len(d) > 0 {
						tasks = append(tasks, maintTask{rule: r, v: v, delta: d})
					}
				}
			}
		}
		if len(tasks) == 0 {
			break
		}
		if err := gs.barrier(); err != nil {
			return nil, err
		}
		if err := checkFixpointBudget(*stats, lim); err != nil {
			return nil, err
		}
		stats.Iterations++
		bufs, err := runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
			return cp.overDeleteVariant(db, st, od, tasks[i], gs.child())
		})
		if err != nil {
			return nil, err
		}
		next := make(map[string][]storage.Tuple)
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			m := od[pred]
			if m == nil {
				m = make(map[string]storage.Tuple)
				od[pred] = m
			}
			for _, d := range buf {
				if _, dead := m[d.key]; dead {
					continue
				}
				m[d.key] = d.t
				next[pred] = append(next[pred], d.t)
				stats.Derived++
			}
		}
		cur = next
	}
	if err := gs.failure(); err != nil {
		return nil, err
	}
	return od, nil
}

// overDeleteVariant enumerates one delta variant for the over-deletion
// fixpoint: matches feed from the round's delta, every other atom reads
// the intact database, and an emitted head counts only if it is currently
// materialized, not yet over-deleted, and not a baseline fact.
func (cp *CompiledProgram) overDeleteVariant(db *storage.Database, st *MaintState, od map[string]map[string]storage.Tuple, t maintTask, g *evalGuard) ([]derivedTuple, error) {
	headRel := db.Relation(t.rule.headPred)
	if headRel == nil {
		return nil, nil
	}
	v := t.v
	srcs := make([]stepSrc, len(v.steps))
	for j := range v.steps {
		s := &v.steps[j]
		if j == 0 {
			srcs[j].tuples = t.delta
			continue
		}
		rel := db.Relation(s.pred)
		if rel == nil {
			continue
		}
		srcs[j].tuples = rel.Tuples()
		if s.probeCol >= 0 {
			if idx, ok := rel.ColumnIndex(s.probeCol); ok {
				srcs[j].idx = idx
			}
		}
	}
	odSet := od[t.rule.headPred]
	comp := compiledComponent{steps: v.steps}
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
		if !headRel.ContainsKey(k) || bufSeen[k] {
			return true
		}
		if odSet != nil {
			if _, dead := odSet[k]; dead {
				return true
			}
		}
		if st.isBaseline(t.rule.headPred, k) {
			return true
		}
		if bufSeen == nil {
			bufSeen = make(map[string]bool)
		}
		bufSeen[k] = true
		buf = append(buf, derivedTuple{t: tuple, key: k})
		if g.emitRow() {
			return false
		}
		return true
	})
	return buf, evalErr
}

// rederive restores the over-deleted tuples that still have a derivation in
// the post-removal database, removing each survivor from od as it is
// re-inserted. Round 0 runs the head-rooted support variants (or filtered
// full variants for Skolem heads); later rounds propagate re-insertions
// through the ordinary IDB delta variants, accepting only heads still
// missing — re-inserted tuples cannot derive anything genuinely new,
// because the pre-batch database was already a fixpoint over a superset.
func (cp *CompiledProgram) rederive(db *storage.Database, od map[string]map[string]storage.Tuple, workers int, gs *guardState, lim Limits, stats *FixpointStats) error {
	type redTask struct {
		rule  *compiledRule
		v     *ruleVariant
		delta []storage.Tuple
	}
	runRound := func(tasks []redTask, cur map[string][]storage.Tuple) error {
		if err := gs.barrier(); err != nil {
			return err
		}
		if err := checkFixpointBudget(*stats, lim); err != nil {
			return err
		}
		stats.Iterations++
		bufs, err := runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
			return cp.rederiveVariant(db, od[tasks[i].rule.headPred], tasks[i].v, tasks[i].delta, gs.child())
		})
		if err != nil {
			return err
		}
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			rel, err := db.Ensure(pred, tasks[i].rule.arity)
			if err != nil {
				return err
			}
			for _, d := range buf {
				if rel.Insert(d.t) {
					delete(od[pred], d.key)
					cur[pred] = append(cur[pred], d.t)
				}
			}
		}
		return nil
	}

	var tasks []redTask
	for i := range cp.rules {
		r := &cp.rules[i]
		if len(od[r.headPred]) == 0 {
			continue
		}
		sv := &cp.supports[i]
		if sv.rooted {
			if sv.v.empty {
				continue
			}
			feed := make([]storage.Tuple, 0, len(od[r.headPred]))
			for _, t := range od[r.headPred] {
				feed = append(feed, t)
			}
			tasks = append(tasks, redTask{rule: r, v: &sv.v, delta: feed})
		} else if !r.full.empty {
			tasks = append(tasks, redTask{rule: r, v: &r.full})
		}
	}
	cur := make(map[string][]storage.Tuple)
	if len(tasks) > 0 {
		if err := runRound(tasks, cur); err != nil {
			return err
		}
	}
	for len(cur) > 0 {
		prev := cur
		cur = make(map[string][]storage.Tuple)
		tasks = tasks[:0]
		for i := range cp.rules {
			r := &cp.rules[i]
			if len(od[r.headPred]) == 0 {
				continue
			}
			for j := range r.deltas {
				v := &r.deltas[j]
				if v.empty {
					continue
				}
				if d := prev[v.deltaPred]; len(d) > 0 {
					tasks = append(tasks, redTask{rule: r, v: v, delta: d})
				}
			}
		}
		if len(tasks) == 0 {
			break
		}
		if err := runRound(tasks, cur); err != nil {
			return err
		}
	}
	return gs.failure()
}

// rederiveVariant enumerates one re-derivation plan — a support variant fed
// by the over-deleted set, an IDB delta variant fed by re-insertions, or a
// filtered full variant (delta == nil) — accepting only heads still in the
// missing set.
func (cp *CompiledProgram) rederiveVariant(db *storage.Database, missing map[string]storage.Tuple, v *ruleVariant, delta []storage.Tuple, g *evalGuard) ([]derivedTuple, error) {
	srcs := make([]stepSrc, len(v.steps))
	for j := range v.steps {
		s := &v.steps[j]
		if j == 0 && delta != nil {
			srcs[j].tuples = delta
			continue
		}
		rel := db.Relation(s.pred)
		if rel == nil {
			continue
		}
		srcs[j].tuples = rel.Tuples()
		if s.probeCol >= 0 {
			if idx, ok := rel.ColumnIndex(s.probeCol); ok {
				srcs[j].idx = idx
			}
		}
	}
	comp := compiledComponent{steps: v.steps}
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
		if _, want := missing[k]; !want || bufSeen[k] {
			return true
		}
		if bufSeen == nil {
			bufSeen = make(map[string]bool)
		}
		bufSeen[k] = true
		buf = append(buf, derivedTuple{t: tuple, key: k})
		if g.emitRow() {
			return false
		}
		return true
	})
	return buf, evalErr
}
