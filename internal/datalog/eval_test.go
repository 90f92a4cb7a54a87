package datalog

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func edgeDB(edges ...[2]string) *storage.Database {
	db := storage.NewDatabase()
	for _, e := range edges {
		db.Insert("e", storage.Tuple{e[0], e[1]})
	}
	return db
}

func TestEvalQuerySimpleJoin(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	got := EvalQuery(db, mustQ("q(X,Z) :- e(X,Y), e(Y,Z)"))
	want := []storage.Tuple{{"a", "c"}, {"b", "d"}}
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestEvalQueryConstantsInBody(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	got := EvalQuery(db, mustQ("q(Y) :- e(a,Y)"))
	if !storage.TuplesEqual(got, []storage.Tuple{{"b"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalQueryConstantsInHead(t *testing.T) {
	db := edgeDB([2]string{"a", "b"})
	got := EvalQuery(db, mustQ("q(X,tag) :- e(X,Y)"))
	if !storage.TuplesEqual(got, []storage.Tuple{{"a", "tag"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalQueryRepeatedVariable(t *testing.T) {
	db := edgeDB([2]string{"a", "a"}, [2]string{"a", "b"})
	got := EvalQuery(db, mustQ("q(X) :- e(X,X)"))
	if !storage.TuplesEqual(got, []storage.Tuple{{"a"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalQueryComparisons(t *testing.T) {
	db := storage.NewDatabase()
	for _, v := range []string{"1", "3", "5", "7"} {
		db.Insert("r", storage.Tuple{v})
	}
	got := EvalQuery(db, mustQ("q(X) :- r(X), X > 2, X < 6"))
	if !storage.TuplesEqual(got, []storage.Tuple{{"3"}, {"5"}}) {
		t.Fatalf("got %v", got)
	}
	// Variable-variable comparison.
	db2 := edgeDB([2]string{"1", "2"}, [2]string{"3", "2"})
	got2 := EvalQuery(db2, mustQ("q(X,Y) :- e(X,Y), X < Y"))
	if !storage.TuplesEqual(got2, []storage.Tuple{{"1", "2"}}) {
		t.Fatalf("got %v", got2)
	}
}

func TestEvalQueryMissingRelation(t *testing.T) {
	db := edgeDB([2]string{"a", "b"})
	got := EvalQuery(db, mustQ("q(X) :- nope(X)"))
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	// A join with a missing relation is empty but must not drop sibling
	// enumeration semantics.
	got = EvalQuery(db, mustQ("q(X) :- e(X,Y), nope(Y)"))
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestEvalQueryCartesianProduct(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("a", storage.Tuple{"1"})
	db.Insert("a", storage.Tuple{"2"})
	db.Insert("b", storage.Tuple{"x"})
	got := EvalQuery(db, mustQ("q(X,Y) :- a(X), b(Y)"))
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestEvalQueryDeduplicates(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"a", "c"})
	got := EvalQuery(db, mustQ("q(X) :- e(X,Y)"))
	if !storage.TuplesEqual(got, []storage.Tuple{{"a"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalUnion(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", storage.Tuple{"1"})
	db.Insert("s", storage.Tuple{"2"})
	db.Insert("s", storage.Tuple{"1"})
	u := cq.NewUnion(mustQ("q(X) :- r(X)"), mustQ("q(X) :- s(X)"))
	got := EvalUnion(db, u)
	if !storage.TuplesEqual(got, []storage.Tuple{{"1"}, {"2"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestMaterializeViews(t *testing.T) {
	base := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	views := []*cq.Query{
		mustQ("v1(X,Y) :- e(X,Y)"),
		mustQ("v2(X) :- e(X,Y), e(Y,Z)"),
	}
	vdb, err := MaterializeViews(base, views)
	if err != nil {
		t.Fatal(err)
	}
	if vdb.Relation("v1").Len() != 2 || vdb.Relation("v2").Len() != 1 {
		t.Fatalf("view extents wrong: v1=%d v2=%d", vdb.Relation("v1").Len(), vdb.Relation("v2").Len())
	}
	if vdb.Relation("e") != nil {
		t.Fatal("base relation leaked into view database")
	}
}

func TestEvalAgainstFrozenQuery(t *testing.T) {
	// The canonical database of q must satisfy q (Chandra–Merlin sanity).
	q := mustQ("q(X,Y) :- e(X,Z), e(Z,Y), f(Y)")
	db := storage.NewDatabase()
	facts := []cq.Atom{
		cq.NewAtom("e", cq.Const("cx"), cq.Const("cz")),
		cq.NewAtom("e", cq.Const("cz"), cq.Const("cy")),
		cq.NewAtom("f", cq.Const("cy")),
	}
	if err := db.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	got := EvalQuery(db, q)
	if !storage.TuplesEqual(got, []storage.Tuple{{"cx", "cy"}}) {
		t.Fatalf("got %v", got)
	}
}
