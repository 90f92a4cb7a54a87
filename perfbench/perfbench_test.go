package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
)

// serve runs the workload's namespace in-process behind an HTTP server
// whose exec and query replies pass through corrupt.
func serve(t *testing.T, s *spec, corrupt func(path string, body []byte) []byte) *httptest.Server {
	t.Helper()
	cfg := s.cfg
	if s.durable {
		cfg.DataDir = t.TempDir()
	}
	ns, err := server.NewNamespace(server.DefaultNamespace, s.base.Clone(), s.views, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Engine.Close() })
	reg := server.NewRegistry()
	if err := reg.Add(ns); err != nil {
		t.Fatal(err)
	}
	h := server.New(reg).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if corrupt != nil && rec.Code == http.StatusOK {
			body = corrupt(r.URL.Path, body)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// drive prepares both connections and runs one load phase.
func drive(t *testing.T, s *spec, url string, d time.Duration) [2]*classStats {
	t.Helper()
	ctx := context.Background()
	var clients [2]*client
	var rngs [2]*rand.Rand
	for i := range clients {
		clients[i] = newClient(url)
		defer clients[i].close()
		rngs[i] = rand.New(rand.NewSource(int64(i)))
		if s.prepare[i] != "" {
			if err := clients[i].prepare(ctx, s.prepare[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var offsets [2]int
	stats, _ := loadPhase(ctx, s, clients, rngs, &offsets, &batchClock{}, d, false)
	return stats
}

// plant returns a corrupter that rewrites one value in the first reply on
// the given path, from the n-th on, that contains it, and a counter of the
// replies it rewrote.
func plant(path string, n int64, from, to string) (func(string, []byte) []byte, *atomic.Int64) {
	var seen, planted atomic.Int64
	return func(p string, body []byte) []byte {
		if p != path || seen.Add(1) < n || planted.Load() > 0 || !bytes.Contains(body, []byte(from)) {
			return body
		}
		planted.Add(1)
		return bytes.Replace(body, []byte(from), []byte(to), 1)
	}, &planted
}

func failures(stats [2]*classStats) (int, string) {
	n, msgs := 0, []string{}
	for _, cs := range stats {
		n += cs.failed
		msgs = append(msgs, cs.errs...)
	}
	return n, strings.Join(msgs, "; ")
}

func TestReadOracleCatchesPlantedWrongAnswer(t *testing.T) {
	s, err := generate("read", 3, 1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	clean := drive(t, s, serve(t, s, nil).URL, 300*time.Millisecond)
	if n, msg := failures(clean); n != 0 || len(clean[0].lats) == 0 || len(clean[1].lats) == 0 {
		t.Fatalf("clean run: %d failures (%s), %d point and %d fan-out answers", n, msg, len(clean[0].lats), len(clean[1].lats))
	}
	// Every value is a fixed-width id; swapping a digit of one answer
	// yields a well-formed but wrong reply.
	corrupt, planted := plant("/v1/exec", 5, `"b0000`, `"b0009`)
	stats := drive(t, s, serve(t, s, corrupt).URL, 300*time.Millisecond)
	n, msg := failures(stats)
	if planted.Load() != 1 || n != 1 || !strings.Contains(msg, "wrong answer") {
		t.Fatalf("planted %d wrong answers, run counted %d failures: %s", planted.Load(), n, msg)
	}
}

func TestAdhocOracleMatchesEngineAndCatchesPlantedWrongAnswer(t *testing.T) {
	s, err := generate("adhoc", 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle is the naive answer over the base facts; the daemon
	// answers through rewritings over the views. They must agree on every
	// pooled template.
	clean := drive(t, s, serve(t, s, nil).URL, 500*time.Millisecond)
	if n, msg := failures(clean); n != 0 || len(clean[1].lats) < 100 {
		t.Fatalf("clean run: %d failures (%s), %d queries", n, msg, len(clean[1].lats))
	}
	corrupt, planted := plant("/v1/query", 3, `["c`, `["x`)
	stats := drive(t, s, serve(t, s, corrupt).URL, 300*time.Millisecond)
	if n, msg := failures(stats); planted.Load() != 1 || n != 1 || !strings.Contains(msg, "wrong answer") {
		t.Fatalf("planted %d wrong replies, run counted %d failures: %s", planted.Load(), n, msg)
	}
}

func TestChurnOracleCatchesPlantedWrongAnswer(t *testing.T) {
	s, err := generate("churn", 5, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s.batches = s.batches[:200]
	clean := drive(t, s, serve(t, s, nil).URL, 5*time.Second)
	if n, msg := failures(clean); n != 0 || len(clean[1].lats) != 200 {
		t.Fatalf("clean run: %d failures (%s), %d of 200 batches", n, msg, len(clean[1].lats))
	}
	corrupt, planted := plant("/v1/exec", 20, `["b0`, `["x0`)
	stats := drive(t, s, serve(t, s, corrupt).URL, 5*time.Second)
	if n, msg := failures(stats); planted.Load() != 1 || n != 1 || !strings.Contains(msg, "no state between") {
		t.Fatalf("planted %d wrong answers, run counted %d failures: %s", planted.Load(), n, msg)
	}
}

func TestChurnCheckBoundsTheBatchesInFlight(t *testing.T) {
	s := &spec{history: map[string][]version{
		"k": {{at: 0, rows: []storage.Tuple{{"x"}}}, {at: 3, rows: []storage.Tuple{{"y"}}}, {at: 7, rows: nil}},
	}}
	cases := []struct {
		got    []storage.Tuple
		lo, hi int
		ok     bool
	}{
		{[]storage.Tuple{{"x"}}, 0, 0, true},
		{[]storage.Tuple{{"x"}}, 2, 3, true},  // batch 3 was in flight
		{[]storage.Tuple{{"y"}}, 2, 3, true},  // and may have landed
		{[]storage.Tuple{{"x"}}, 3, 3, false}, // batch 3 was acknowledged
		{[]storage.Tuple{{"y"}}, 7, 9, false},
		{nil, 7, 9, true},
		{[]storage.Tuple{{"z"}}, 0, 9, false},
	}
	for _, c := range cases {
		err := s.check(&request{class: classPoint, key: "k"}, c.got, c.lo, c.hi)
		if (err == nil) != c.ok {
			t.Errorf("check(%v, %d, %d) = %v, want ok=%v", c.got, c.lo, c.hi, err, c.ok)
		}
	}
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		scale := 0.05
		if name == "adhoc" {
			scale = 1
		}
		a, err := generate(name, 9, 1, scale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 9, 1, scale)
		c, _ := generate(name, 10, 1, scale)
		if !a.base.Equal(b.base) {
			t.Errorf("%s: same seed, different base facts", name)
		}
		if a.base.Equal(c.base) {
			t.Errorf("%s: different seeds, same base facts", name)
		}
		for i := range a.next {
			ra := a.next[i](rand.New(rand.NewSource(1)), 7)
			rb := b.next[i](rand.New(rand.NewSource(1)), 7)
			if fmt.Sprint(ra.class, ra.args, ra.text, ra.ins, ra.del) != fmt.Sprint(rb.class, rb.args, rb.text, rb.ins, rb.del) {
				t.Errorf("%s connection %d: same seed, different requests", name, i)
			}
		}
	}
}

func TestPercentilesNeedTenSamplesBeyondTheP99(t *testing.T) {
	cs := &classStats{class: "x"}
	for i := 0; i < 999; i++ {
		cs.lats = append(cs.lats, time.Duration(i)*time.Microsecond)
	}
	if _, _, err := percentiles(cs); err == nil {
		t.Fatal("999 samples: want an error, a p99 would have 9 samples beyond it")
	}
	cs.lats = append(cs.lats, time.Millisecond)
	p50, p99, err := percentiles(cs)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 0.499 || p99 != 0.989 {
		t.Fatalf("p50 %v p99 %v, want 0.499 and 0.989", p50, p99)
	}
}
