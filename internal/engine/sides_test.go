package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/ivm"
	"repro/internal/storage"
)

// checkMirrored fails unless both serving sides hold the same predicates
// with equal tuple sets, every relation frozen, and readers are on side 1.
func checkMirrored(t *testing.T, e *Engine, ctx string) {
	t.Helper()
	l := e.live
	if got := l.active.Load(); got != 1 {
		t.Fatalf("%s: readers on side %d between batches, want side 1", ctx, got)
	}
	s0, s1 := l.sides[0], l.sides[1]
	p0, p1 := s0.Predicates(), s1.Predicates()
	if fmt.Sprint(p0) != fmt.Sprint(p1) {
		t.Fatalf("%s: side predicates differ: %v vs %v", ctx, p0, p1)
	}
	for _, pred := range p0 {
		r0, r1 := s0.Relation(pred), s1.Relation(pred)
		if !storage.TuplesEqual(r0.Tuples(), r1.Tuples()) {
			t.Fatalf("%s: %s differs across sides\n  side 0: %v\n  side 1: %v", ctx, pred, r0.Tuples(), r1.Tuples())
		}
		if !r0.Frozen() || !r1.Frozen() {
			t.Fatalf("%s: %s not frozen (side 0 %v, side 1 %v)", ctx, pred, r0.Frozen(), r1.Frozen())
		}
	}
}

// TestLiveEngineHoldsTwoCopies: a live engine's side 0 is the maintainer's
// own state — every relation it serves is the maintainer's *Relation, and
// under InverseRules it exposes no base predicate — so the engine holds
// two copies of its state, not three. A random mixed-batch stream keeps
// both sides equal.
func TestLiveEngineHoldsTwoCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2C0B1E5))
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, strat := range Strategies() {
		base, views := testBase(t)
		e, err := NewFromBase(base, views, Options{Strategy: strat, LiveUpdates: true})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		m := e.live.maint
		checkShared := func(ctx string) {
			t.Helper()
			for _, pred := range e.live.sides[0].Predicates() {
				if e.live.sides[0].Relation(pred) != m.Database().Relation(pred) {
					t.Fatalf("%s %s: side 0 relation %s is a copy, not the maintainer's", strat, ctx, pred)
				}
				if strat == InverseRules && !m.IsView(pred) {
					t.Fatalf("%s %s: side 0 exposes base predicate %s", strat, ctx, pred)
				}
			}
		}
		checkShared("at build")
		checkMirrored(t, e, fmt.Sprintf("%s at build", strat))

		shadow := base.Clone()
		for batch := 0; batch < 12; batch++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			for _, pred := range []string{"r", "s", "u"} {
				rel := shadow.Relation(pred)
				if rel == nil || rel.Len() == 0 || rng.Intn(2) == 0 {
					continue
				}
				tuples := rel.Tuples()
				del[pred] = append(del[pred], tuples[rng.Intn(len(tuples))])
			}
			for i := 0; i < 1+rng.Intn(4); i++ {
				switch rng.Intn(3) {
				case 0:
					ins["r"] = append(ins["r"], storage.Tuple{fmt.Sprintf("a%d", rng.Intn(6)), fmt.Sprintf("m%d", rng.Intn(6))})
				case 1:
					ins["s"] = append(ins["s"], storage.Tuple{fmt.Sprintf("m%d", rng.Intn(6)), fmt.Sprintf("x%d", rng.Intn(6))})
				default: // a base predicate no view reads, absent at build
					ins["u"] = append(ins["u"], storage.Tuple{fmt.Sprintf("m%d", rng.Intn(6))})
				}
			}
			if err := update(e, ins, del); err != nil {
				t.Fatalf("%s batch %d: %v", strat, batch, err)
			}
			for pred, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(pred, tup)
				}
			}
			for pred, tuples := range ins {
				for _, tup := range tuples {
					shadow.Insert(pred, tup)
				}
			}
			ctx := fmt.Sprintf("%s batch %d", strat, batch)
			checkShared(ctx)
			checkMirrored(t, e, ctx)
		}
		fresh, err := NewFromBase(shadow, views, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustAnswer(t, e, q), mustAnswer(t, fresh, q); !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: live %v, rebuilt %v", strat, got, want)
		}
	}
}

// TestPublishHealsSide1: a replay onto side 1 that fails — an arity clash
// makes appendDelta error, mixed tuple widths make Insert panic — leaves
// the batch committed on side 0 and rebuilds side 1 from it, so the pair
// is mirrored again with readers back on side 1, and the engine keeps
// maintaining exactly.
func TestPublishHealsSide1(t *testing.T) {
	for _, strat := range []Strategy{EquivalentFirst, InverseRules} {
		base, views := testBase(t)
		e, err := NewFromBase(base, views, Options{Strategy: strat, LiveUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		// Retract a live extent tuple first, so a replay that stops early
		// has already diverged side 1 from side 0.
		gone := map[string][]storage.Tuple{"v": {{"a", "x"}}}
		clash := &ivm.BatchResult{ExtentRetracted: gone, ExtentDelta: map[string][]storage.Tuple{"v": {{"a"}}}}
		var arity *storage.ArityError
		if err := e.publish(clash); !errors.As(err, &arity) {
			t.Fatalf("%s: arity clash: err = %v, want *storage.ArityError", strat, err)
		}
		checkMirrored(t, e, fmt.Sprintf("%s after arity clash", strat))

		widths := &ivm.BatchResult{ExtentRetracted: gone, ExtentDelta: map[string][]storage.Tuple{"v": {{"p", "q"}, {"z"}}}}
		if err := e.publish(widths); !errors.Is(err, ErrInternal) {
			t.Fatalf("%s: mixed widths: err = %v, want ErrInternal", strat, err)
		}
		checkMirrored(t, e, fmt.Sprintf("%s after mixed widths", strat))
		if got := e.Stats().Panics; got != 1 {
			t.Fatalf("%s: Panics = %d, want 1", strat, got)
		}

		ins := map[string][]storage.Tuple{"r": {{"c", "n"}}, "s": {{"n", "zz"}}}
		del := map[string][]storage.Tuple{"r": {{"a", "m"}}}
		if err := update(e, ins, del); err != nil {
			t.Fatalf("%s: batch after heal: %v", strat, err)
		}
		checkMirrored(t, e, fmt.Sprintf("%s after the next batch", strat))
		base.Remove("r", storage.Tuple{"a", "m"})
		base.Insert("r", storage.Tuple{"c", "n"})
		base.Insert("s", storage.Tuple{"n", "zz"})
		fresh, err := NewFromBase(base, views, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
		if got, want := mustAnswer(t, e, q), mustAnswer(t, fresh, q); !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: after heal live %v, rebuilt %v", strat, got, want)
		}
		for _, v := range views {
			lt, ft := e.Database().Relation(v.Name()).Tuples(), fresh.Database().Relation(v.Name()).Tuples()
			if !storage.TuplesEqual(lt, ft) {
				t.Fatalf("%s: extent %s after heal\n  live:  %v\n  fresh: %v", strat, v.Name(), lt, ft)
			}
		}
	}
}

// TestNewBaseRelationFrozenUnderReaders: a batch inserting into a base
// predicate absent at build creates it frozen on both sides, and readers
// running a partial rewriting that reads it concurrently (run with -race)
// see only the pre- or the post-batch answers.
func TestNewBaseRelationFrozenUnderReaders(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y), u(X)")
	pre := mustAnswer(t, e, q)
	if len(pre) != 0 {
		t.Fatalf("pre-batch answers = %v, want none", pre)
	}
	batch := map[string][]storage.Tuple{"u": {{"a"}, {"b"}}}
	want := []storage.Tuple{{"a", "x"}, {"b", "y"}}

	// Each reader reads at least once before the batch and runs until it
	// sees the post-batch answer.
	var started, done sync.WaitGroup
	for w := 0; w < 4; w++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			first := true
			for {
				got, err := answer(e, q)
				if first {
					started.Done()
					first = false
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != 0 {
					if !storage.TuplesEqual(got, want) {
						t.Errorf("torn answer %v", got)
					}
					return
				}
			}
		}()
	}
	started.Wait()
	if err := update(e, batch, nil); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	for i, side := range e.live.sides {
		if rel := side.Relation("u"); rel == nil || !rel.Frozen() {
			t.Fatalf("side %d: new relation u = %v, want present and frozen", i, rel)
		}
	}
	checkMirrored(t, e, "after the batch")
	if got := mustAnswer(t, e, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("post-batch answers = %v, want %v", got, want)
	}
}

// TestStaleReaderRepinsSide1: a reader that loaded active while it named
// side 0, then stalled before its read lock, must not pin side 0 after a
// batch was applied there but before it is logged and published. Holding
// side 0's write lock as commit does, the test applies a batch in place;
// the stale reader waits out the lock, sees that active names side 1 and
// pins that side, which does not hold the batch.
func TestStaleReaderRepinsSide1(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	l := e.live
	fact := storage.Tuple{"c", "n"}
	type pinned struct {
		db       *storage.Database
		sawBatch bool
	}
	got := make(chan pinned)
	l.locks[0].Lock()
	go func() {
		db, release := l.pin(0)
		defer release()
		got <- pinned{db, db.Relation("r").Contains(fact)}
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block on side 0's lock
	res, err := l.maint.ApplyUpdateCtx(context.Background(), map[string][]storage.Tuple{"r": {fact}}, nil, datalog.Limits{})
	l.locks[0].Unlock()
	if err != nil {
		t.Fatal(err)
	}
	p := <-got
	if p.db != l.sides[1] {
		t.Fatal("stale reader pinned side 0 while readers were on side 1")
	}
	if p.sawBatch {
		t.Fatal("stale reader saw an unpublished batch")
	}
	if err := e.publish(res); err != nil {
		t.Fatal(err)
	}
	checkMirrored(t, e, "after publishing the batch")
}
