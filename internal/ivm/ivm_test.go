package ivm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

func testViews(t *testing.T) (*storage.Database, []*cq.Query) {
	t.Helper()
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("r", storage.Tuple{"b", "n"})
	base.Insert("s", storage.Tuple{"m", "x"})
	views, err := cq.ParseViews(`
		v(A,B)  :- r(A,C), s(C,B).
		vr(A,B) :- r(A,B).
		big(A,B) :- s(A,B), B > 5.
	`)
	if err != nil {
		t.Fatal(err)
	}
	return base, views
}

func TestMaintainerBasics(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsView("v") || m.IsView("r") {
		t.Fatal("IsView wrong")
	}
	if got := m.Database().Relation("v").Len(); got != 1 {
		t.Fatalf("initial v extent = %d, want 1", got)
	}
	// Non-numeric values compare lexicographically: "x" > "5" holds.
	if got := m.Database().Relation("big").Len(); got != 1 {
		t.Fatalf("initial big extent = %d, want 1", got)
	}

	res, err := apply(m, map[string][]storage.Tuple{
		"s": {{"n", "9"}, {"m", "x"}}, // one new join partner, one duplicate
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseInserted["s"]) != 1 {
		t.Fatalf("BaseInserted = %v, want one new s tuple", res.BaseInserted)
	}
	// s(n,9) joins r(b,n) into v, and 9 > 5 enters big.
	if len(res.ExtentDelta["v"]) != 1 || len(res.ExtentDelta["big"]) != 1 {
		t.Fatalf("ExtentDelta = %v, want one v and one big tuple", res.ExtentDelta)
	}
	if !m.Database().Relation("v").Contains(storage.Tuple{"b", "9"}) {
		t.Fatal("v extent missing maintained tuple")
	}
	if !m.Database().Relation("v").Frozen() {
		t.Fatal("extent lost its indexes across maintenance")
	}

	// Inserting into a view predicate is rejected and mutates nothing.
	if _, err := apply(m, map[string][]storage.Tuple{"v": {{"z", "z"}}}, nil); err == nil {
		t.Fatal("insert into view extent accepted")
	}

	st := m.Stats()
	if st.Batches != 1 || st.BaseInserted != 1 || st.ExtentDerived != 2 || st.Rounds == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaintainTime <= 0 {
		t.Fatalf("MaintainTime = %v", st.MaintainTime)
	}
}

func TestMaintainerEmptyViewSet(t *testing.T) {
	if _, err := New(storage.NewDatabase(), nil, Options{}); err == nil {
		t.Fatal("empty view set accepted")
	}
}

// TestMaintainerDifferential drives random update streams over random view
// sets and checks every extent against a full MaterializeViews of the
// accumulated base after each batch.
func TestMaintainerDifferential(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(0xBEEF))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		base := workload.RandomDatabase(rng, preds, 2, 5+rng.Intn(40), 4+rng.Intn(12))
		q := workload.RandomQuery(rng, 2+rng.Intn(3), len(preds), 0.5)
		views := workload.RandomViewsForQuery(rng, q, workload.ViewSpec{
			Count: 1 + rng.Intn(4), MinLen: 1, MaxLen: 3, ExposeProb: 0.6,
		})
		m, err := New(base, views, Options{Workers: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shadow := base.Clone()
		for batch := 0; batch < 1+rng.Intn(3); batch++ {
			upd := make(map[string][]storage.Tuple)
			for i := 0; i < 1+rng.Intn(5); i++ {
				p := preds[rng.Intn(len(preds))]
				tup := storage.Tuple{
					fmt.Sprintf("c%d", rng.Intn(16)),
					fmt.Sprintf("c%d", rng.Intn(16)),
				}
				upd[p] = append(upd[p], tup)
				shadow.Insert(p, tup)
			}
			if _, err := apply(m, upd, nil); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, batch, err)
			}
			want, err := datalog.MaterializeViews(shadow, views)
			if err != nil {
				t.Fatalf("trial %d batch %d: rematerialize: %v", trial, batch, err)
			}
			for _, v := range views {
				got := m.Database().Relation(v.Name()).Tuples()
				if !storage.TuplesEqual(got, want.Relation(v.Name()).Tuples()) {
					t.Fatalf("trial %d batch %d: extent %s diverges\n  incremental: %v\n  full:        %v\n  view: %s",
						trial, batch, v.Name(), got, want.Relation(v.Name()).Tuples(), v)
				}
			}
			// Base relations track the shadow exactly.
			for _, p := range preds {
				if !storage.TuplesEqual(m.Database().Relation(p).Tuples(), shadow.Relation(p).Tuples()) {
					t.Fatalf("trial %d batch %d: base %s diverges", trial, batch, p)
				}
			}
		}
	}
}

// apply is ApplyUpdateCtx under context.Background() with no limits.
func apply(m *Maintainer, inserts, deletes map[string][]storage.Tuple) (*BatchResult, error) {
	return m.ApplyUpdateCtx(context.Background(), inserts, deletes, datalog.Limits{})
}
