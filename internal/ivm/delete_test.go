package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestMaintainerApplyUpdateBasics(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete r(a,m): v(a,x) loses its only derivation, vr(a,m) too.
	res, err := apply(m, nil, map[string][]storage.Tuple{"r": {{"a", "m"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseDeleted["r"]) != 1 {
		t.Fatalf("BaseDeleted = %v", res.BaseDeleted)
	}
	if len(res.ExtentRetracted["v"]) != 1 || len(res.ExtentRetracted["vr"]) != 1 {
		t.Fatalf("ExtentRetracted = %v, want one v and one vr tuple", res.ExtentRetracted)
	}
	if m.Database().Relation("v").Contains(storage.Tuple{"a", "x"}) {
		t.Fatal("retracted extent tuple survives")
	}
	if !m.Database().Relation("v").Frozen() {
		t.Fatal("extent lost its indexes across a retraction")
	}

	// Mixed batch: re-insert r(a,m) and delete s(m,x) — v(a,x) must not
	// come back (its join partner is gone) but vr(a,m) must.
	res, err = apply(m,
		map[string][]storage.Tuple{"r": {{"a", "m"}}},
		map[string][]storage.Tuple{"s": {{"m", "x"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Database().Relation("v").Contains(storage.Tuple{"a", "x"}) {
		t.Fatal("v(a,x) re-derived without its join partner")
	}
	if !m.Database().Relation("vr").Contains(storage.Tuple{"a", "m"}) {
		t.Fatalf("vr(a,m) not re-derived by the insert side: %+v", res)
	}

	// Deleting a view extent is rejected and mutates nothing.
	if _, err := apply(m, nil, map[string][]storage.Tuple{"v": {{"z", "z"}}}); err == nil {
		t.Fatal("delete from view extent accepted")
	}

	st := m.Stats()
	if st.Batches != 2 || st.BaseDeleted != 2 || st.ExtentRetracted < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMaintainerUpdateDifferential drives random mixed insert/delete
// streams over random view sets, across worker counts, and checks every
// extent against a full re-materialization of the surviving base after
// each batch.
func TestMaintainerUpdateDifferential(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(0xD_E1E7))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		base := workload.RandomDatabase(rng, preds, 2, 5+rng.Intn(40), 4+rng.Intn(12))
		q := workload.RandomQuery(rng, 2+rng.Intn(3), len(preds), 0.5)
		views := workload.RandomViewsForQuery(rng, q, workload.ViewSpec{
			Count: 1 + rng.Intn(4), MinLen: 1, MaxLen: 3, ExposeProb: 0.6,
		})
		// Unused draws: they keep every trial's random stream, and so its
		// bases, views and batches, identical to the recorded one.
		if rng.Intn(2) == 0 {
			rng.Intn(3)
		}
		m, err := New(base, views, Options{Workers: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shadow := base.Clone()
		for batch := 0; batch < 2+rng.Intn(3); batch++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			if batch > 0 || rng.Intn(2) == 0 { // sometimes an insert-only first batch
				for _, p := range preds {
					rel := shadow.Relation(p)
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
			if _, err := apply(m, ins, del); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, batch, err)
			}
			for p, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(p, tup)
				}
			}
			for p, tuples := range ins {
				for _, tup := range tuples {
					shadow.Insert(p, tup)
				}
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
			for _, p := range preds {
				if !storage.TuplesEqual(m.Database().Relation(p).Tuples(), shadow.Relation(p).Tuples()) {
					t.Fatalf("trial %d batch %d: base %s diverges", trial, batch, p)
				}
			}
		}
	}
}
