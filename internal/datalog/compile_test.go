package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// checkAgreement verifies every evaluation route against the unoptimised
// reference EvalQueryNaive on one (db, q) instance.
func checkAgreement(t *testing.T, db *storage.Database, q *cq.Query, label string) {
	t.Helper()
	want := EvalQueryNaive(db, q)
	plan := Compile(q, cost.NewCatalog(db))
	if got := runPlan(plan, db, RunOpts{}); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: compiled Run disagrees with naive\nquery: %s\nplan:\n%s got %v\nwant %v",
			label, q, plan.Describe(), got, want)
	}
	if got := runPlan(plan, db, RunOpts{Workers: 4}); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: parallel Run disagrees with naive\nquery: %s\ngot %v\nwant %v", label, q, got, want)
	}
	if got := EvalQuery(db, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: EvalQuery disagrees with naive\nquery: %s\ngot %v\nwant %v", label, q, got, want)
	}
	if got := EvalQueryInterp(db, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: interpreter disagrees with naive\nquery: %s\ngot %v\nwant %v", label, q, got, want)
	}
	if got := runPlan(plan, db, RunOpts{Unsorted: true}); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: unsorted Run disagrees with naive\nquery: %s\ngot %v\nwant %v", label, q, got, want)
	}
}

// TestCompiledMatchesNaiveRandom is the differential property test of the
// compiled executor: on randomized workloads — varying connectivity (many
// are disconnected), random constants, comparison predicates and Skolem
// values in the data — every route must agree exactly with EvalQueryNaive.
func TestCompiledMatchesNaiveRandom(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 120
	}
	rng := rand.New(rand.NewSource(71))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		reuse := []float64{0, 0.3, 0.6}[trial%3]
		q := workload.RandomQuery(rng, 2+rng.Intn(4), len(preds), reuse)
		db := workload.RandomDatabase(rng, preds, 2, 10+rng.Intn(15), 6+rng.Intn(6))

		// The naive reference enumerates disconnected bodies as a full
		// cross product; bound its worst case so the test stays fast.
		naiveCost := 1
		for _, a := range q.Body {
			if r := db.Relation(a.Pred); r != nil {
				naiveCost *= r.Len()
			}
		}
		if naiveCost > 200_000 {
			continue
		}

		// Sprinkle Skolem values into the data: they join by ordinary
		// equality and must flow through slots like any constant.
		for i := 0; i < 4; i++ {
			p := preds[rng.Intn(len(preds))]
			sk := fmt.Sprintf("⟨f%d:c%d⟩", rng.Intn(2), rng.Intn(5))
			db.Insert(p, storage.Tuple{sk, fmt.Sprintf("c%d", rng.Intn(8))})
			db.Insert(p, storage.Tuple{fmt.Sprintf("c%d", rng.Intn(8)), sk})
		}

		// Replace a random body argument by a constant (index probes by
		// constant, constant checks on scan fallback).
		if rng.Intn(2) == 0 {
			a := rng.Intn(len(q.Body))
			q.Body[a].Args[rng.Intn(2)] = cq.Const(fmt.Sprintf("c%d", rng.Intn(8)))
		}

		// Attach random comparisons over body variables.
		var bodyVars []cq.Term
		seen := map[string]bool{}
		for _, a := range q.Body {
			for _, arg := range a.Args {
				if arg.IsVar() && !seen[arg.Lex] {
					seen[arg.Lex] = true
					bodyVars = append(bodyVars, arg)
				}
			}
		}
		for i := rng.Intn(3); i > 0 && len(bodyVars) > 0; i-- {
			l := bodyVars[rng.Intn(len(bodyVars))]
			var r cq.Term
			if rng.Intn(3) == 0 {
				r = cq.Const(fmt.Sprintf("c%d", rng.Intn(8)))
			} else {
				r = bodyVars[rng.Intn(len(bodyVars))]
			}
			op := cq.CompOp(rng.Intn(6))
			q.AddComparison(cq.NewComparison(l, op, r))
		}

		checkAgreement(t, db, q, fmt.Sprintf("trial %d", trial))
	}
}

// TestCompiledDisconnected covers the decomposition shapes explicitly:
// cross products, existence-only components, and constant-only heads.
func TestCompiledDisconnected(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 5; i++ {
		db.Insert("a", storage.Tuple{fmt.Sprintf("x%d", i)})
		db.Insert("b", storage.Tuple{fmt.Sprintf("y%d", i)})
	}
	db.Insert("c", storage.Tuple{"only"})
	for _, src := range []string{
		"q(X,Y) :- a(X), b(Y)",
		"q(X) :- a(X), b(Y)",
		"q(X) :- a(X), b(Y), c(Z)",
		"q(tag) :- a(X), b(Y)",
		"q(X) :- a(X), nope(Y)",
		"q(X,Y) :- a(X), b(Y), X != Y",
	} {
		checkAgreement(t, db, cq.MustParseQuery(src), src)
	}
}

// TestCompiledGroundComparisons checks compile-time decided comparisons.
func TestCompiledGroundComparisons(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", storage.Tuple{"1"})
	for _, src := range []string{
		"q(X) :- r(X), 1 < 2",
		"q(X) :- r(X), 2 < 1",
		"q(X) :- r(X), 'a' = 'a'",
	} {
		checkAgreement(t, db, cq.MustParseQuery(src), src)
	}
}

// TestCompiledComparisonDepth asserts the comparison runs before the leaf:
// in a chain join it must be attached to the step that binds its variables,
// not re-checked per full binding.
func TestCompiledComparisonDepth(t *testing.T) {
	q := cq.MustParseQuery("q(X,Z) :- e(X,Y), f(Y,Z), X < Y")
	plan := Compile(q, nil)
	desc := plan.Describe()
	lines := strings.Split(strings.TrimSpace(desc), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected plan:\n%s", desc)
	}
	// Step 1 joins e(X,Y) and binds both comparison variables.
	if !strings.Contains(lines[1], "comparisons=1") {
		t.Fatalf("comparison not attached to its earliest bound depth:\n%s", desc)
	}
	if strings.Contains(lines[2], "comparisons") {
		t.Fatalf("comparison leaked to the leaf:\n%s", desc)
	}
}

// TestCompiledDontCareDedup checks that don't-care columns do not multiply
// the join work: the step-level dedup stands in for the interpreter's
// materialised projections.
func TestCompiledDontCareDedup(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 50; i++ {
		db.Insert("v", storage.Tuple{"k", fmt.Sprintf("junk%d", i)})
	}
	db.Insert("w", storage.Tuple{"k"})
	q := cq.MustParseQuery("q(X) :- v(X,J), w(X)")
	checkAgreement(t, db, q, "dont-care")
	// The join form turns the don't-care atom into an existential step
	// (first match decides) because w is smaller and joins first…
	plan := Compile(q, cost.NewCatalog(db))
	if !strings.Contains(plan.Describe(), "existential") {
		t.Fatalf("expected an existential step for the don't-care atom:\n%s", plan.Describe())
	}
	// …while a binding step with a don't-care column gets step dedup.
	q2 := cq.MustParseQuery("q(X) :- v(X,J)")
	checkAgreement(t, db, q2, "dont-care root")
	plan2 := Compile(q2, cost.NewCatalog(db))
	if !strings.Contains(plan2.Describe(), "dedup") {
		t.Fatalf("expected a dedup step for the don't-care column:\n%s", plan2.Describe())
	}
}

// TestEvalParallelUnfrozenNeverMutates exercises the scan fallback under
// the race detector: the database is never frozen, so any lazy index build
// inside the executor would be a data race across these goroutines.
func TestEvalParallelUnfrozenNeverMutates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := workload.RandomDatabase(rng, []string{"p1", "p2"}, 2, 200, 20)
	q := cq.MustParseQuery("q(X,Z) :- p1(X,Y), p2(Y,Z)")
	plan := Compile(q, nil)
	want := runPlan(plan, db, RunOpts{})
	if db.Relation("p1").Frozen() {
		t.Fatal("compiled executor mutated the relation (built indexes)")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := runPlan(plan, db, RunOpts{Workers: 4}); !storage.TuplesEqual(got, want) {
					t.Errorf("concurrent parallel Run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvalParallelFrozenConcurrent is the fast path under the race
// detector: frozen relations, indexed probes, many concurrent evaluations.
func TestEvalParallelFrozenConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := workload.ChainDatabase(rng, 4, true, 300, 40)
	db.BuildIndexes()
	q := workload.ChainQuery(4, true)
	plan := Compile(q, cost.NewCatalog(db))
	want := EvalQueryNaive(db, q)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := runPlan(plan, db, RunOpts{Workers: 4}); !storage.TuplesEqual(got, want) {
					t.Errorf("concurrent parallel Run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}
