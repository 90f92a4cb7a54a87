package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// sameDeltas reports whether two per-predicate delta maps hold the same
// tuple sets, treating an absent predicate like an empty one.
func sameDeltas(a, b map[string][]storage.Tuple) bool {
	for pred, tuples := range a {
		if !storage.TuplesEqual(tuples, b[pred]) {
			return false
		}
	}
	for pred, tuples := range b {
		if !storage.TuplesEqual(tuples, a[pred]) {
			return false
		}
	}
	return true
}

// randomUpdate draws one mixed batch over preds: deletions of present
// facts (sometimes none) and insertions from a small domain.
func randomUpdate(rng *rand.Rand, db *storage.Database, preds []string) (ins, del map[string][]storage.Tuple) {
	ins = make(map[string][]storage.Tuple)
	del = make(map[string][]storage.Tuple)
	if rng.Intn(3) > 0 {
		for _, p := range preds {
			rel := db.Relation(p)
			if rel == nil || rel.Len() == 0 || rng.Intn(3) == 0 {
				continue
			}
			tuples := rel.Tuples()
			for i := 0; i < 1+rng.Intn(3); i++ {
				del[p] = append(del[p], tuples[rng.Intn(len(tuples))])
			}
		}
	}
	for i := 0; i < rng.Intn(5); i++ {
		p := preds[rng.Intn(len(preds))]
		ins[p] = append(ins[p], storage.Tuple{
			fmt.Sprintf("c%d", rng.Intn(16)),
			fmt.Sprintf("c%d", rng.Intn(16)),
		})
	}
	return ins, del
}

// TestNewFromMaterializedDifferential rebuilds a maintainer mid-stream from
// a clone of another's database and deletion baseline — what recovery from
// a durable snapshot does — then drives both with the same random mixed
// insert/delete batches. Every batch result and the full maintained
// database must agree between the rebuilt maintainer and the one New built.
func TestNewFromMaterializedDifferential(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 25
	}
	rng := rand.New(rand.NewSource(0x5EED_0A7))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		base := workload.RandomDatabase(rng, preds, 2, 5+rng.Intn(40), 4+rng.Intn(12))
		q := workload.RandomQuery(rng, 2+rng.Intn(3), len(preds), 0.5)
		views := workload.RandomViewsForQuery(rng, q, workload.ViewSpec{
			Count: 1 + rng.Intn(4), MinLen: 1, MaxLen: 3, ExposeProb: 0.6,
		})
		if rng.Intn(2) == 0 {
			// A view-named base fact is deletion baseline: it must survive
			// every retraction on both sides of the rebuild.
			v := views[rng.Intn(len(views))]
			fact := make(storage.Tuple, v.Arity())
			for i := range fact {
				fact[i] = fmt.Sprintf("c%d", rng.Intn(16))
			}
			base.Insert(v.Name(), fact)
		}
		workers := 1 + rng.Intn(3)
		ref, err := New(base, views, Options{Workers: workers})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for batch := rng.Intn(3); batch > 0; batch-- {
			ins, del := randomUpdate(rng, ref.Database(), preds)
			if _, err := apply(ref, ins, del); err != nil {
				t.Fatalf("trial %d warm-up: %v", trial, err)
			}
		}
		m, err := NewFromMaterialized(ref.Database().Clone(), ref.Views(), ref.BaselineKeys(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("trial %d: rebuild: %v", trial, err)
		}
		if dbFingerprint(m.Database()) != dbFingerprint(ref.Database()) {
			t.Fatalf("trial %d: rebuilt database differs before any batch", trial)
		}
		for batch := 0; batch < 2+rng.Intn(4); batch++ {
			ins, del := randomUpdate(rng, ref.Database(), preds)
			want, err := apply(ref, ins, del)
			if err != nil {
				t.Fatalf("trial %d batch %d: reference: %v", trial, batch, err)
			}
			got, err := apply(m, ins, del)
			if err != nil {
				t.Fatalf("trial %d batch %d: rebuilt: %v", trial, batch, err)
			}
			if !sameDeltas(got.BaseInserted, want.BaseInserted) || !sameDeltas(got.BaseDeleted, want.BaseDeleted) ||
				!sameDeltas(got.ExtentDelta, want.ExtentDelta) || !sameDeltas(got.ExtentRetracted, want.ExtentRetracted) {
				t.Fatalf("trial %d batch %d: batch results differ\n  rebuilt:   %+v\n  reference: %+v", trial, batch, got, want)
			}
			if dbFingerprint(m.Database()) != dbFingerprint(ref.Database()) {
				t.Fatalf("trial %d batch %d: maintained databases diverge\n  rebuilt:   %s\n  reference: %s",
					trial, batch, dbFingerprint(m.Database()), dbFingerprint(ref.Database()))
			}
		}
	}
}

func TestNewFromMaterializedEmptyViewSet(t *testing.T) {
	if _, err := NewFromMaterialized(storage.NewDatabase(), nil, nil, Options{}); err == nil {
		t.Fatal("empty view set accepted")
	}
	bad, err := cq.ParseQuery("v(A,Z) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromMaterialized(storage.NewDatabase(), []*cq.Query{bad}, nil, Options{}); err == nil {
		t.Fatal("unsafe view accepted")
	}
}

// TestNewFromMaterializedMissingExtent: an extent that materialized empty
// may be absent from a recovered database. The rebuilt maintainer creates
// it, and a later batch derives into it exactly as a New-built one does.
func TestNewFromMaterializedMissingExtent(t *testing.T) {
	base, views := testViews(t)
	ref, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := base.Clone() // base relations only: every extent is missing
	m, err := NewFromMaterialized(db, views, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if m.Database().Relation(v.Name()) == nil {
			t.Fatalf("extent %s not created", v.Name())
		}
	}
	// s(q,9) joins no r fact, so it derives into big alone — the same
	// delta on both sides although only the reference holds v(a,x).
	upd := map[string][]storage.Tuple{"s": {{"q", "9"}}}
	want, err := apply(ref, upd, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := apply(m, upd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDeltas(got.ExtentDelta, want.ExtentDelta) || len(got.ExtentDelta["big"]) != 1 {
		t.Fatalf("ExtentDelta rebuilt %v, reference %v", got.ExtentDelta, want.ExtentDelta)
	}

	// A nil database is an empty one; an extent name clashing with a
	// relation of another arity is refused.
	if m, err := NewFromMaterialized(nil, views, nil, Options{}); err != nil || m.Database().Relation("v") == nil {
		t.Fatalf("nil database: %v", err)
	}
	clash := storage.NewDatabase()
	clash.Insert("v", storage.Tuple{"only-one"})
	if _, err := NewFromMaterialized(clash, views, nil, Options{}); err == nil {
		t.Fatal("extent arity clash accepted")
	}
}
