package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/storage"
)

// postRaw is the goroutine-safe POST helper (t.Fatal is only legal on the
// test goroutine).
func postRaw(url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// randomQuery draws from a small grammar of queries the r/s workload can
// answer: full scans, point lookups and joins, with randomized constants.
func randomQuery(rng *rand.Rand, n int) string {
	k := fmt.Sprintf("k%d", rng.Intn(n+3)) // occasionally misses
	m := fmt.Sprintf("m%d", rng.Intn(44))
	switch rng.Intn(6) {
	case 0:
		return "q(X,Y) :- r(X,Z), s(Z,Y)."
	case 1:
		return fmt.Sprintf("q(Y) :- r(%s,Z), s(Z,Y).", k)
	case 2:
		return fmt.Sprintf("q(X) :- r(X,%s).", m)
	case 3:
		return "q(X,Y) :- r(X,Y)."
	case 4:
		return fmt.Sprintf("q(Y) :- s(%s,Y).", m)
	default:
		return fmt.Sprintf("q(X,Z) :- r(X,%s), s(%s,Z).", m, m)
	}
}

func httpAnswers(t testing.TB, url string, body any) ([]storage.Tuple, int) {
	t.Helper()
	resp := postJSON(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var ans answersResponse
	decodeInto(t, resp, &ans)
	return ans.Answers, ans.Count
}

// TestHTTPDifferentialQuiescent: on a quiescent namespace, HTTP answers equal
// in-process answers exactly — for every planning strategy, over randomized
// queries, through both the one-shot and the prepare/exec path.
func TestHTTPDifferentialQuiescent(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	const n = 40
	for _, strat := range engine.Strategies() {
		t.Run(string(strat), func(t *testing.T) {
			ns := testNamespace(t, DefaultNamespace, n, Config{Strategy: string(strat)})
			_, ts := testServer(t, ns)
			rng := rand.New(rand.NewSource(int64(len(strat)) * 7919))
			for i := 0; i < trials; i++ {
				qsrc := randomQuery(rng, n)
				want, err := ns.Engine.AnswerBudget(context.Background(), cq.MustParseQuery(qsrc), engine.Budget{})
				if err != nil {
					t.Fatalf("in-process %s: %v", qsrc, err)
				}
				got, count := httpAnswers(t, ts.URL+"/v1/query", queryRequest{Query: qsrc})
				if count != len(want) || !sameAnswers(got, want) {
					t.Fatalf("%s: HTTP %d rows != in-process %d rows", qsrc, count, len(want))
				}

				// The prepared path agrees with the one-shot path.
				resp := postJSON(t, ts.URL+"/v1/prepare", prepareRequest{Query: qsrc})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("prepare %s: %s", qsrc, readBody(t, resp))
				}
				var prep prepareResponse
				decodeInto(t, resp, &prep)
				execGot, execCount := httpAnswers(t, ts.URL+"/v1/exec",
					execRequest{Handle: prep.Handle, Args: prep.Args})
				if execCount != len(want) || !sameAnswers(execGot, want) {
					t.Fatalf("%s: exec %d rows != in-process %d rows", qsrc, execCount, len(want))
				}
			}
		})
	}
}

// TestHTTPDifferentialConcurrentBatch: while /v1/batch traffic inserts base
// facts, concurrent HTTP reads observe a monotone sandwich — every answer set
// contains the pre-batch answers and is contained in the post-batch answers
// (CQ answers are monotone under inserts). Once quiescent, HTTP equals
// in-process exactly.
func TestHTTPDifferentialConcurrentBatch(t *testing.T) {
	const n = 30
	ns := testNamespace(t, DefaultNamespace, n, Config{LiveUpdates: true})
	_, ts := testServer(t, ns)
	const qsrc = "q(X,Y) :- r(X,Z), s(Z,Y)."
	q := cq.MustParseQuery(qsrc)

	pre, err := ns.Engine.AnswerBudget(context.Background(), q, engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/prepare", prepareRequest{Query: "q(Y) :- r(k3,Z), s(Z,Y)."})
	var prep prepareResponse
	decodeInto(t, resp, &prep)

	const (
		batches  = 12
		perBatch = 5
		readers  = 4
		reads    = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() { // writer: all-new r keys joining existing s tuples
		defer wg.Done()
		next := 1000
		for b := 0; b < batches; b++ {
			rows := make(Rows, perBatch)
			for i := range rows {
				rows[i] = storage.Tuple{fmt.Sprintf("k%d", next), fmt.Sprintf("m%d", next%40)}
				next++
			}
			status, raw, err := postRaw(ts.URL+"/v1/batch", batchRequest{Updates: map[string]Rows{"r": rows}})
			if err != nil {
				errs <- err
				return
			}
			if status != http.StatusOK {
				errs <- fmt.Errorf("batch status %d: %s", status, raw)
				return
			}
		}
	}()

	var mu sync.Mutex
	var observed [][]storage.Tuple
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				url, body := ts.URL+"/v1/query", any(queryRequest{Query: qsrc})
				fullJoin := (w+i)%2 == 0
				if !fullJoin { // alternate with the prepared point query
					url, body = ts.URL+"/v1/exec", any(execRequest{Handle: prep.Handle, Args: prep.Args})
				}
				status, raw, err := postRaw(url, body)
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("read status %d: %s", status, raw)
					return
				}
				var ans answersResponse
				if err := json.Unmarshal(raw, &ans); err != nil {
					errs <- err
					return
				}
				if fullJoin { // the sandwich below is for the full join
					mu.Lock()
					observed = append(observed, []storage.Tuple(ans.Answers))
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	post, err := ns.Engine.AnswerBudget(context.Background(), q, engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	preSet := make(map[string]bool, len(pre))
	for _, r := range pre {
		preSet[r.Key()] = true
	}
	postSet := make(map[string]bool, len(post))
	for _, r := range post {
		postSet[r.Key()] = true
	}
	if len(postSet) <= len(preSet) {
		t.Fatalf("batches did not grow the view: pre %d, post %d", len(preSet), len(postSet))
	}
	for i, rows := range observed {
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			key := r.Key()
			seen[key] = true
			if !postSet[key] {
				t.Fatalf("read %d: answer %q not in post-batch set (non-monotone)", i, r)
			}
		}
		for key := range preSet {
			if !seen[key] {
				t.Fatalf("read %d: pre-batch answer %q missing (non-monotone)", i, key)
			}
		}
	}

	// Quiescent again: HTTP equals in-process exactly.
	got, count := httpAnswers(t, ts.URL+"/v1/query", queryRequest{Query: qsrc})
	if count != len(post) || !sameAnswers(got, post) {
		t.Fatalf("quiescent HTTP %d rows != in-process %d rows", count, len(post))
	}
}

// TestBatchRoundTripNastyValues: raw byte values — control characters,
// invalid UTF-8, Skolem-style brackets — survive the full HTTP round trip:
// uploaded through /v1/batch, stored, answered back out through /v1/query
// identical to the in-process answer.
func TestBatchRoundTripNastyValues(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 5, Config{LiveUpdates: true})
	_, ts := testServer(t, ns)

	nasty := Rows{
		{"", "empty-left"},
		{"\x00null\x07bell", "ctrl"},
		{string([]byte{0xff, 0xfe}), "not-utf8"},
		{string([]byte{0xc3, 0x28}), "truncated"},
		{"⟨v_f0:a·b⟩", "skolemish"},
		{`"quoted"`, `back\slash`},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", batchRequest{Updates: map[string]Rows{"r": nasty}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)

	const qsrc = "q(X,Y) :- r(X,Y)."
	want, err := ns.Engine.AnswerBudget(context.Background(), cq.MustParseQuery(qsrc), engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := httpAnswers(t, ts.URL+"/v1/query", queryRequest{Query: qsrc})
	if !sameAnswers(got, want) {
		t.Fatalf("nasty values corrupted in flight:\nHTTP  %q\nlocal %q", got, want)
	}
	// And the nasty tuples are actually in there, byte-identical.
	gotSet := make(map[string]bool, len(got))
	for _, r := range got {
		gotSet[r.Key()] = true
	}
	for _, r := range nasty {
		if !gotSet[storage.Tuple(r).Key()] {
			t.Fatalf("tuple %q missing from HTTP answers", r)
		}
	}
}
