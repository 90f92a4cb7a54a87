package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// TestErrorCodeMapping pins the stable wire code of every exported engine
// error, including wrapped forms — the contract network clients rely on
// instead of string matching.
func TestErrorCodeMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, ""},
		{"overloaded sentinel", ErrOverloaded, CodeOverloaded},
		{"overloaded concrete", &OverloadedError{RetryAfter: time.Second}, CodeOverloaded},
		{"budget sentinel", ErrBudgetExceeded, CodeBudgetExceeded},
		{"budget wrapped", fmt.Errorf("row cap: %w", ErrBudgetExceeded), CodeBudgetExceeded},
		{"budget query error", &QueryError{Err: ErrBudgetExceeded, Stats: datalog.FixpointStats{Iterations: 2, Derived: 7}}, CodeBudgetExceeded},
		{"canceled sentinel", ErrCanceled, CodeCanceled},
		{"canceled wrapped", fmt.Errorf("queued: %w", ErrCanceled), CodeCanceled},
		{"canceled query error", &QueryError{Err: ErrCanceled}, CodeCanceled},
		{"context canceled", context.Canceled, CodeCanceled},
		{"context deadline", context.DeadlineExceeded, CodeCanceled},
		{"internal sentinel", ErrInternal, CodeInternal},
		{"internal concrete", &InternalError{Value: "boom", Stack: []byte("stack")}, CodeInternal},
		{"arity sentinel", ErrArityMismatch, CodeArityMismatch},
		{"arity wrapped", fmt.Errorf("takes 2: %w", ErrArityMismatch), CodeArityMismatch},
		{"storage arity", &storage.ArityError{Pred: "r", Want: 2, Got: 3}, CodeArityMismatch},
		{"not live", ErrNotLive, CodeNotLive},
		{"unknown", errors.New("something else"), ""},
	}
	for _, c := range cases {
		if got := ErrorCode(c.err); got != c.want {
			t.Errorf("%s: ErrorCode = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestErrorCodeLiveEngine exercises the mapping on errors produced by a
// real engine, not hand-built values: overload, deadline, budget trip,
// panic and arity paths all yield their stable codes.
func TestErrorCodeLiveEngine(t *testing.T) {
	base := storage.NewDatabase()
	for i := 0; i < 200; i++ {
		base.Insert("r", storage.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%20)})
		base.Insert("s", storage.Tuple{fmt.Sprintf("b%d", i%20), fmt.Sprintf("c%d", i%7)})
	}
	views, err := cq.ParseViews(`
		v(A,B)  :- r(A,C), s(C,B).
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	t.Run("budget", func(t *testing.T) {
		e, err := NewFromBase(base, views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.AnswerBudget(context.Background(), q, Budget{MaxResultRows: 1})
		if code := ErrorCode(err); code != CodeBudgetExceeded {
			t.Fatalf("budget trip: code %q (err %v), want %q", code, err, CodeBudgetExceeded)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		e, err := NewFromBase(base, views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = e.AnswerBudget(ctx, q, Budget{})
		if code := ErrorCode(err); code != CodeCanceled {
			t.Fatalf("pre-canceled context: code %q (err %v), want %q", code, err, CodeCanceled)
		}
	})
	t.Run("arity", func(t *testing.T) {
		e, err := NewFromBase(base, views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(a1,Z), s(Z,Y)"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = execute(pq, "x", "y", "z")
		if code := ErrorCode(err); code != CodeArityMismatch {
			t.Fatalf("bad arity: code %q (err %v), want %q", code, err, CodeArityMismatch)
		}
	})
	t.Run("not live", func(t *testing.T) {
		e, err := NewFromBase(base, views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = update(e, map[string][]storage.Tuple{"r": {storage.Tuple{"x", "y"}}}, nil)
		if code := ErrorCode(err); code != CodeNotLive {
			t.Fatalf("frozen insert: code %q (err %v), want %q", code, err, CodeNotLive)
		}
	})
}

// TestRetryHintFloor: a cold engine (no executions) and a hot-but-fast one
// must both hint at least MinRetryAfter, never a microsecond-range value
// that truncates to zero seconds on the wire.
func TestRetryHintFloor(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "b"})
	views, err := cq.ParseViews("v(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hint := e.retryHint(0); hint < MinRetryAfter {
		t.Fatalf("cold retryHint(0) = %v, want >= %v", hint, MinRetryAfter)
	}
	// Warm the engine with fast executions: the observed average is far
	// below MinRetryAfter, so the floor must hold it up.
	for i := 0; i < 20; i++ {
		if _, err := answer(e, cq.MustParseQuery("q(X,Y) :- r(X,Y)")); err != nil {
			t.Fatal(err)
		}
	}
	if hint := e.retryHint(0); hint < MinRetryAfter {
		t.Fatalf("warm retryHint(0) = %v, want >= %v", hint, MinRetryAfter)
	}
	if hint := e.retryHint(3); hint < MinRetryAfter {
		t.Fatalf("warm retryHint(3) = %v, want >= %v", hint, MinRetryAfter)
	}
}

// TestShedRetryAfterFloor: an engine that sheds must attach a RetryAfter of
// at least MinRetryAfter to the OverloadedError itself.
func TestShedRetryAfterFloor(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "b"})
	views, err := cq.ParseViews("v(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the single slot directly, then watch a request shed.
	if err := e.admit.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	defer e.admit.release(1)
	_, err = answer(e, cq.MustParseQuery("q(X,Y) :- r(X,Y)"))
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("saturated engine returned %v, want OverloadedError", err)
	}
	if oe.RetryAfter < MinRetryAfter {
		t.Fatalf("shed RetryAfter = %v, want >= %v", oe.RetryAfter, MinRetryAfter)
	}
}
