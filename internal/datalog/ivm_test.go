package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
)

// Differential property test for incremental view maintenance: on randomized
// update streams over random recursive programs — the progdiff corpus:
// transitive closures (linear and nonlinear), cycles, mutual recursion,
// Skolem heads, head constants, comparisons, don't-care columns — the
// incrementally maintained database must equal a full re-materialization
// from scratch after every batch, relation by relation, with exact set
// equality.

// randomUpdate draws one batch of base facts from the same distribution
// randomProgDB populates, so updates collide with existing tuples (no-op
// inserts) as often as they extend the database.
func randomUpdate(rng *rand.Rand) map[string][]storage.Tuple {
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	nodes := 3 + rng.Intn(6)
	upd := make(map[string][]storage.Tuple)
	for i := 0; i < 1+rng.Intn(4); i++ {
		upd["e"] = append(upd["e"], storage.Tuple{node(rng.Intn(nodes)), node(rng.Intn(nodes))})
	}
	if rng.Intn(2) == 0 {
		upd["u"] = append(upd["u"], storage.Tuple{node(rng.Intn(nodes))})
	}
	if rng.Intn(2) == 0 {
		upd["m"] = append(upd["m"], storage.Tuple{node(rng.Intn(nodes)), fmt.Sprint(rng.Intn(10))})
	}
	if rng.Intn(3) == 0 {
		upd["t3"] = append(upd["t3"], storage.Tuple{node(rng.Intn(nodes)), fmt.Sprint(rng.Intn(3)), fmt.Sprint(rng.Intn(3))})
	}
	return upd
}

func TestMaintainDeltaDifferential(t *testing.T) {
	streams := 400
	if testing.Short() {
		streams = 80
	}
	rng := rand.New(rand.NewSource(0x17A9))
	for stream := 0; stream < streams; stream++ {
		edb := randomProgDB(rng)
		prog := randomProgram(rng, stream)
		cp, err := CompileProgramIVM(prog, cost.NewRowCatalog(edb))
		if err != nil {
			t.Fatalf("stream %d: compile: %v\n%s", stream, err, prog)
		}

		// The maintained database: full materialization once, then deltas.
		maintained, err := cp.Run(context.Background(), edb, RunOpts{})
		if err != nil {
			t.Fatalf("stream %d: materialize: %v\n%s", stream, err, prog)
		}
		if rng.Intn(2) == 0 {
			maintained.BuildIndexes() // cover indexed probes and scan fallbacks
		}
		// The shadow EDB accumulates raw base facts for re-materialization.
		shadow := edb.Clone()

		batches := 1 + rng.Intn(4)
		for batch := 0; batch < batches; batch++ {
			upd := randomUpdate(rng)
			workers := 1 + rng.Intn(4)
			res, err := cp.Apply(context.Background(), maintained, nil, upd, nil, RunOpts{Workers: workers})
			if err != nil {
				t.Fatalf("stream %d batch %d: maintain: %v\n%s", stream, batch, err, prog)
			}
			fresh, derived, stats := res.BaseInserted, res.Derived, res.Stats
			for pred, tuples := range upd {
				for _, tup := range tuples {
					if err := shadow.Insert(pred, tup); err != nil {
						t.Fatalf("stream %d batch %d: shadow insert: %v", stream, batch, err)
					}
				}
			}
			total := 0
			for _, d := range derived {
				total += len(d)
			}
			if total != stats.Derived {
				t.Fatalf("stream %d batch %d: derived map has %d tuples, stats report %d", stream, batch, total, stats.Derived)
			}
			for pred, tuples := range fresh {
				for _, tup := range tuples {
					if !maintained.Relation(pred).Contains(tup) {
						t.Fatalf("stream %d batch %d: fresh tuple %s%v missing from db", stream, batch, pred, tup)
					}
				}
			}

			want, err := prog.EvalInterp(shadow)
			if err != nil {
				t.Fatalf("stream %d batch %d: interp: %v\n%s", stream, batch, err, prog)
			}
			diffDatabases(t, fmt.Sprintf("stream %d batch %d (incremental vs full)\n%s", stream, batch, prog), maintained, want)
		}
	}
}

// TestMaintainDeltaConjunctiveView is the deterministic engine-shaped case:
// a join view maintained under base inserts that create join partners both
// ways, including a batch where the two halves of a new join arrive
// together (the new⋈new case the post-batch database evaluation covers).
func TestMaintainDeltaConjunctiveView(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"m", "x"})
	prog := NewProgram(RuleFromQuery(mustQ("v(X,Y) :- r(X,Z), s(Z,Y)")))
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Run(context.Background(), base, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()
	if db.Relation("v").Len() != 1 {
		t.Fatalf("initial extent = %v", db.Relation("v").Tuples())
	}

	// Batch 1: a new r tuple joining an existing s tuple.
	res, err := cp.Apply(context.Background(), db, nil, map[string][]storage.Tuple{"r": {{"b", "m"}}}, nil, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	derived, stats := res.Derived, res.Stats
	if len(derived["v"]) != 1 || derived["v"][0].Key() != (storage.Tuple{"b", "x"}).Key() {
		t.Fatalf("batch 1 derived %v, want v(b,x)", derived)
	}
	if stats.Iterations != 1 {
		t.Fatalf("batch 1 iterations = %d", stats.Iterations)
	}

	// Batch 2: both halves of a fresh join arrive in one batch, plus a
	// duplicate base fact that must not derive anything.
	res, err = cp.Apply(context.Background(), db, nil, map[string][]storage.Tuple{
		"r": {{"c", "n"}, {"a", "m"}},
		"s": {{"n", "y"}},
	}, nil, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	derived = res.Derived
	if len(derived["v"]) != 1 || derived["v"][0].Key() != (storage.Tuple{"c", "y"}).Key() {
		t.Fatalf("batch 2 derived %v, want exactly v(c,y)", derived)
	}
	if !db.Relation("v").Frozen() {
		t.Fatal("maintained extent lost its indexes")
	}
}

// TestMaintainDeltaRecursive extends a transitive-closure chain by one edge
// and checks the propagation derives exactly the new closure tuples in a
// number of rounds proportional to the chain, against full recomputation.
func TestMaintainDeltaRecursive(t *testing.T) {
	base := storage.NewDatabase()
	for i := 0; i < 10; i++ {
		base.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	prog := NewProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Run(context.Background(), base, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()
	before := db.Relation("tc").Len()

	res, err := cp.Apply(context.Background(), db, nil, map[string][]storage.Tuple{"e": {{"10", "11"}}}, nil, RunOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	derived := res.Derived
	// The new edge closes 0..10 → 11: eleven new tc tuples.
	if len(derived["tc"]) != 11 {
		t.Fatalf("derived %d tc tuples, want 11: %v", len(derived["tc"]), derived["tc"])
	}
	if db.Relation("tc").Len() != before+11 {
		t.Fatalf("tc grew by %d, want 11", db.Relation("tc").Len()-before)
	}
	shadow := base.Clone()
	shadow.Insert("e", storage.Tuple{"10", "11"})
	want, err := prog.EvalInterp(shadow)
	if err != nil {
		t.Fatal(err)
	}
	diffDatabases(t, "recursive maintenance", db, want)
}

func TestMaintainDeltaErrors(t *testing.T) {
	prog := NewProgram(RuleFromQuery(mustQ("v(X) :- r(X,Y)")))
	plain, err := CompileProgram(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if _, err := plain.Apply(context.Background(), db, nil, nil, nil, RunOpts{}); err != ErrNotMaintenance {
		t.Fatalf("non-IVM program: err = %v, want ErrNotMaintenance", err)
	}

	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert("r", storage.Tuple{"a", "b"})
	mdb, err := cp.Run(context.Background(), db, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Inserting into the derived relation is rejected.
	if _, err := cp.Apply(context.Background(), mdb, nil, map[string][]storage.Tuple{"v": {{"z"}}}, nil, RunOpts{}); err == nil {
		t.Fatal("insert into derived relation accepted")
	}
	// Arity mismatches are rejected before anything is mutated.
	if _, err := cp.Apply(context.Background(), mdb, nil, map[string][]storage.Tuple{
		"r":     {{"c", "d"}},
		"wrong": {{"1"}, {"1", "2"}},
	}, nil, RunOpts{}); err == nil {
		t.Fatal("mixed-arity batch accepted")
	}
	if mdb.Relation("r").Len() != 1 || mdb.Relation("wrong") != nil {
		t.Fatal("failed batch mutated the database")
	}
	// An empty batch is a no-op.
	res, err := cp.Apply(context.Background(), mdb, nil, nil, nil, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, derived, stats := res.BaseInserted, res.Derived, res.Stats
	if len(fresh) != 0 || len(derived) != 0 || stats.Iterations != 0 || stats.Derived != 0 {
		t.Fatalf("empty batch did work: %v %v %+v", fresh, derived, stats)
	}
}
