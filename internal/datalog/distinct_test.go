package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestDistinctFlag pins which components the compiler marks distinct:
// exactly those whose steps bind only head slots and skip no column.
func TestDistinctFlag(t *testing.T) {
	for _, c := range []struct {
		src      string
		params   []string
		distinct bool
	}{
		{"q(A) :- v(A,b)", nil, true},                        // one probe, A the only bind
		{"q(A) :- v(A,B)", []string{"B"}, true},              // the prepared fan-out
		{"q(A,C,B) :- r(A,C), s(C,B)", nil, true},            // full-head join
		{"q(A) :- v(A,A)", nil, true},                        // repeated variable: bind then check
		{"q(A) :- v(A,b), w(A)", nil, true},                  // existential step
		{"q(A) :- r(A,C), s(C,B)", nil, false},               // singleton don't-care B
		{"q(A,B) :- r(A,C), s(C,B)", nil, false},             // non-head join variable C
		{"q(A) :- v(A,C), C < d", nil, false},                // comparison variable C
		{"q(A,B) :- v(A,B), w(C,C)", nil, true},              // existence component aside
		{"q(A,B) :- v(A,C), w(B,D)", nil, false},             // two components, both with don't-cares
		{"q(A,B,C) :- v(A,b), w(B,C), A < B", nil, true},     // comparison on head variables
		{"q(X) :- r(X,Y), s(Y,Z), t(Z,X)", nil, false},       // cycle through non-head slots
		{"q(X,Y,Z) :- r(X,Y), s(Y,Z), t(Z,X)", nil, true},    // the same cycle, full head
		{"q(P,Y) :- r(P,Y)", []string{"P"}, true},            // parameter in the head
		{"q(Y) :- r(P,Z), s(Z,Y)", []string{"P"}, false},     // non-head join variable Z
		{"q(Y,Z) :- r(P,Z), s(Z,Y)", []string{"P"}, true},    // the same join, Z in the head
		{"q(Y) :- r(P,Y), s(Y,Q)", []string{"P", "Q"}, true}, // two parameters
	} {
		plan := CompileParams(cq.MustParseQuery(c.src), c.params, nil)
		got := false
		for i := range plan.components {
			if plan.components[i].distinct {
				got = true
			}
		}
		if got != c.distinct {
			t.Errorf("%s params %v: distinct = %v, want %v\n%s", c.src, c.params, got, c.distinct, plan.Describe())
		}
		if strings.Contains(plan.Describe(), "distinct") != c.distinct {
			t.Errorf("%s: Describe disagrees with the flag:\n%s", c.src, plan.Describe())
		}
	}
}

// randomDistinctQuery draws a small conjunctive query over p1..p3 whose
// head keeps every body variable about half the time, so both distinct and
// non-distinct components come up often; one variable may become a
// parameter.
func randomDistinctQuery(rng *rand.Rand) (*cq.Query, []string) {
	var body []cq.Atom
	var vars []string
	seen := map[string]bool{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		args := make([]cq.Term, 2)
		for j := range args {
			if rng.Intn(6) == 0 {
				args[j] = cq.Const(fmt.Sprintf("c%d", rng.Intn(6)))
				continue
			}
			v := fmt.Sprintf("X%d", rng.Intn(4))
			args[j] = cq.Var(v)
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		body = append(body, cq.NewAtom(fmt.Sprintf("p%d", 1+rng.Intn(3)), args...))
	}
	full := rng.Intn(2) == 0
	var head []cq.Term
	for _, v := range vars {
		if full || rng.Intn(2) == 0 {
			head = append(head, cq.Var(v))
		}
	}
	q := cq.NewQuery(cq.NewAtom("q", head...), body...)
	if len(vars) >= 2 && rng.Intn(4) == 0 {
		q.AddComparison(cq.NewComparison(cq.Var(vars[0]), cq.Lt, cq.Var(vars[1])))
	}
	var params []string
	if len(vars) > 0 && rng.Intn(3) == 0 {
		params = []string{vars[rng.Intn(len(vars))]}
	}
	return q, params
}

// TestDistinctRunMatchesNaive is the differential test of the no-dedup
// path: random plans, distinct or not, must return exactly the naive
// evaluator's answers — no duplicates, none missing — sequentially and
// with four workers.
func TestDistinctRunMatchesNaive(t *testing.T) {
	trials := 600
	if testing.Short() {
		trials = 150
	}
	rng := rand.New(rand.NewSource(0xD157))
	preds := []string{"p1", "p2", "p3"}
	flagged := 0
	for trial := 0; trial < trials; trial++ {
		db := workload.RandomDatabase(rng, preds, 2, 20+rng.Intn(60), 6+rng.Intn(6))
		db.BuildIndexes()
		q, params := randomDistinctQuery(rng)
		plan := CompileParams(q, params, cost.NewCatalog(db))
		if len(plan.components) > 0 && plan.components[0].distinct {
			flagged++
		}
		var args []string
		ref := q
		if len(params) > 0 {
			args = []string{fmt.Sprintf("c%d", rng.Intn(8))}
			ref = instantiate(q, params, args)
		}
		want := EvalQueryNaive(db, ref)
		for _, workers := range []int{1, 4} {
			got := runPlan(plan, db, RunOpts{Args: args, Workers: workers, Unsorted: true})
			if len(got) != len(want) || !storage.TuplesEqual(got, want) {
				t.Fatalf("trial %d workers %d: %s params %v args %v\nplan:\n%sgot  %v\nwant %v",
					trial, workers, q, params, args, plan.Describe(), got, want)
			}
		}
	}
	if flagged < trials/5 || flagged > trials*4/5 {
		t.Fatalf("%d of %d random plans distinct: the generator no longer covers both paths", flagged, trials)
	}
}

// TestDistinctMaxRows: skipping the dedup set changes no row count the
// budget sees, so Limits.MaxRows trips exactly when the answer set is
// larger than the budget, for distinct and deduplicating plans alike.
func TestDistinctMaxRows(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 300; i++ {
		db.Insert("v", storage.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%3), fmt.Sprintf("c%d", i%7)})
	}
	db.BuildIndexes()
	cat := cost.NewCatalog(db)
	for _, c := range []struct {
		src      string
		distinct bool
	}{
		{"q(A,B,C) :- v(A,B,C)", true},
		{"q(A) :- v(A,b1,C)", false},
		{"q(B,C) :- v(A,B,C)", false},
	} {
		q := cq.MustParseQuery(c.src)
		plan := Compile(q, cat)
		if plan.components[0].distinct != c.distinct {
			t.Fatalf("%s: distinct = %v, want %v", c.src, !c.distinct, c.distinct)
		}
		n := len(EvalQueryNaive(db, q))
		for _, workers := range []int{1, 4} {
			for _, max := range []int{1, n - 1, n, n + 1} {
				_, err := plan.Run(context.Background(), db, RunOpts{Workers: workers, Limits: Limits{MaxRows: max}})
				if trips := errors.Is(err, ErrBudgetExceeded); trips != (n > max) {
					t.Fatalf("%s workers %d: %d rows under MaxRows %d: err = %v", c.src, workers, n, max, err)
				}
			}
		}
	}
}
