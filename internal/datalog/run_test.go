package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// runPlan is Run under context.Background(), which cannot fail without
// limits.
func runPlan(p *CompiledPlan, db *storage.Database, o RunOpts) []storage.Tuple {
	rows, err := p.Run(context.Background(), db, o)
	if err != nil {
		panic(err)
	}
	return rows
}

// TestRunParity checks CompiledPlan.Run against the naive reference
// evaluator across every combination of its options: Workers {1,4} ×
// Unsorted {false,true} × parameterized or not × a background or a
// cancellable context. Sorted runs must come back sorted; a pre-canceled
// context must return ErrCanceled.
func TestRunParity(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(0x5EED))
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	dead, kill := context.WithCancel(context.Background())
	kill()
	for trial := 0; trial < trials; trial++ {
		preds := []string{"p1", "p2", "p3"}
		db := workload.RandomDatabase(rng, preds, 2, 60+rng.Intn(150), 10)
		db.BuildIndexes()
		cat := cost.NewCatalog(db)
		// A chain q(X0, Xn) :- p(X0,X1), ..., p(Xn-1,Xn), or its
		// parameterized form with X0 bound per execution.
		n := 2 + rng.Intn(2)
		var body []cq.Atom
		for i := 0; i < n; i++ {
			body = append(body, cq.NewAtom(preds[rng.Intn(len(preds))],
				cq.Var(fmt.Sprintf("X%d", i)), cq.Var(fmt.Sprintf("X%d", i+1))))
		}
		last := cq.Var(fmt.Sprintf("X%d", n))
		full := cq.NewQuery(cq.NewAtom("q", cq.Var("X0"), last), body...)
		param := cq.NewQuery(cq.NewAtom("q", last), body...)
		arg := fmt.Sprintf("c%d", rng.Intn(12)) // sometimes absent

		cases := []struct {
			name string
			plan *CompiledPlan
			args []string
			want []storage.Tuple
		}{
			{"plain", Compile(full, cat), nil, EvalQueryNaive(db, full)},
			{"args", CompileParams(param, []string{"X0"}, cat), []string{arg},
				EvalQueryNaive(db, instantiate(param, []string{"X0"}, []string{arg}))},
		}
		for _, c := range cases {
			if _, err := c.plan.Run(dead, db, RunOpts{Args: c.args}); !errors.Is(err, ErrCanceled) {
				t.Fatalf("trial %d %s: pre-canceled Run err = %v, want ErrCanceled", trial, c.name, err)
			}
			for _, ctx := range []context.Context{context.Background(), live} {
				for _, workers := range []int{1, 4} {
					for _, unsorted := range []bool{false, true} {
						o := RunOpts{Args: c.args, Workers: workers, Unsorted: unsorted}
						got, err := c.plan.Run(ctx, db, o)
						if err != nil {
							t.Fatalf("trial %d %s %+v: %v", trial, c.name, o, err)
						}
						if !storage.TuplesEqual(got, c.want) {
							t.Fatalf("trial %d %s %+v: %s\ngot %v\nwant %v", trial, c.name, o, full, got, c.want)
						}
						sorted := sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Less(got[j]) })
						if !unsorted && !sorted {
							t.Fatalf("trial %d %s %+v: answers not sorted", trial, c.name, o)
						}
					}
				}
			}
		}
	}
}

// TestApplyInsertOnlyAtomic: an insert-only batch that is canceled or trips
// a budget mid-propagation leaves the maintained database exactly as it
// was before the batch — on the monotone path as on the counting path.
func TestApplyInsertOnlyAtomic(t *testing.T) {
	prog := NewProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	base := chainEdgeDB(40)
	cp, err := CompileProgramIVM(prog, cost.NewRowCatalog(base))
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Run(context.Background(), base, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()
	pristine := db.Clone()
	// Closing the chain into a cycle derives ~40 tuples per round, with a
	// new base relation riding along so rollback must also drop it.
	batch := map[string][]storage.Tuple{
		"e":     {{"n40", "n0"}},
		"fresh": {{"x"}},
	}
	dead, kill := context.WithCancel(context.Background())
	kill()
	for _, c := range []struct {
		name string
		ctx  context.Context
		lim  Limits
		want error
	}{
		{"canceled", dead, Limits{}, ErrCanceled},
		{"max-derived", context.Background(), Limits{MaxDerived: 50}, ErrBudgetExceeded},
		{"max-rounds", context.Background(), Limits{MaxRounds: 2}, ErrBudgetExceeded},
	} {
		if _, err := cp.Apply(c.ctx, db, nil, batch, nil, RunOpts{Workers: 2, Limits: c.lim}); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		diffDatabases(t, c.name+" (rolled back vs pre-batch)", db, pristine)
		if db.Relation("fresh") != nil {
			t.Fatalf("%s: batch-created relation survived the rollback", c.name)
		}
	}
	// The same batch unbudgeted applies in full.
	res, err := cp.Apply(context.Background(), db, nil, batch, nil, RunOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Derived == 0 || len(res.BaseInserted["fresh"]) != 1 {
		t.Fatalf("unbudgeted batch: %+v", res)
	}
}
