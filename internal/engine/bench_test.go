package engine

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
)

// benchSetup builds a chain schema r0 ⋈ r1 ⋈ ... with pairwise join views
// and a little data, so that planning (the rewriting search) dominates a
// single evaluation — the regime where the plan cache pays off.
func benchSetup(b *testing.B, n int) (*storage.Database, []*cq.Query, *cq.Query) {
	b.Helper()
	base := storage.NewDatabase()
	for i := 0; i < n; i++ {
		pred := fmt.Sprintf("r%d", i)
		for k := 0; k < 8; k++ {
			t := storage.Tuple{fmt.Sprintf("c%d_%d", i, k), fmt.Sprintf("c%d_%d", i+1, k)}
			if err := base.Insert(pred, t); err != nil {
				b.Fatal(err)
			}
		}
	}
	var viewSrc, bodySrc string
	for i := 0; i+1 < n; i += 2 {
		viewSrc += fmt.Sprintf("v%d(A,B) :- r%d(A,C), r%d(C,B).\n", i/2, i, i+1)
	}
	// Overlapping offset views enlarge the cover search space the cold
	// path must explore without changing the best (cached) plan.
	for i := 1; i+1 < n; i += 2 {
		viewSrc += fmt.Sprintf("w%d(A,B) :- r%d(A,C), r%d(C,B).\n", i/2, i, i+1)
	}
	for i := 0; i < n; i++ {
		viewSrc += fmt.Sprintf("u%d(A,B) :- r%d(A,B).\n", i, i)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			bodySrc += ", "
		}
		bodySrc += fmt.Sprintf("r%d(X%d,X%d)", i, i, i+1)
	}
	views, err := cq.ParseViews(viewSrc)
	if err != nil {
		b.Fatal(err)
	}
	q := cq.MustParseQuery(fmt.Sprintf("q(X0,X%d) :- %s", n, bodySrc))
	return base, views, q
}

// BenchmarkAnswerCold re-plans the query every iteration (fresh engine):
// the cost an application pays without the serving layer.
func BenchmarkAnswerCold(b *testing.B) {
	base, views, q := benchSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewFromBase(base, views, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := answer(e, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerWarm serves the same query from one engine: plan-cache hit
// plus evaluation. The ratio to BenchmarkAnswerCold is the cache win.
func BenchmarkAnswerWarm(b *testing.B) {
	base, views, q := benchSetup(b, 8)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := answer(e, q); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := answer(e, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerWarmParallel measures the warm path under concurrent load,
// exercising the engine mutex and the frozen indexes.
func BenchmarkAnswerWarmParallel(b *testing.B) {
	base, views, q := benchSetup(b, 8)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := answer(e, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := answer(e, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFingerprint isolates the per-request canonicalisation cost — the
// price of a cache probe.
func BenchmarkFingerprint(b *testing.B) {
	_, _, q := benchSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cq.Fingerprint(q)
	}
}

// preparedSetup builds a point-lookup serving scenario: 2000 r tuples, a
// join view, and a constant-selecting query whose template abstracts the
// key.
func preparedSetup(b *testing.B) (*Engine, []*cq.Query) {
	b.Helper()
	base, views := pointBase(b, 2000)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*cq.Query, 256)
	for i := range queries {
		queries[i] = cq.MustParseQuery(fmt.Sprintf("q(Y) :- r(k%d,Z), s(Z,Y)", i))
	}
	return e, queries
}

// BenchmarkAnswerVaryingConstants streams constant-varying point lookups
// through Answer: template canonicalisation + cache hit + bound execution
// per query (one plan compiled for the whole stream).
func BenchmarkAnswerVaryingConstants(b *testing.B) {
	e, queries := preparedSetup(b)
	if _, err := answer(e, queries[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := answer(e, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedExec streams the same lookups through a PreparedQuery:
// no per-request canonicalisation at all, just the bound plan execution —
// the engine's floor for point lookups.
func BenchmarkPreparedExec(b *testing.B) {
	e, queries := preparedSetup(b)
	pq, err := e.Prepare(queries[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execute(pq, fmt.Sprintf("k%d", i%256)); err != nil {
			b.Fatal(err)
		}
	}
}
