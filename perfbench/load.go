package main

// The closed-loop load generator. Each of the two connections sends its
// next request only after the previous reply has been read, times the
// round trip from send to the last body byte, and checks the answer
// against the oracle outside the timed window.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// client is one HTTP connection to the daemon.
type client struct {
	url    string
	hc     *http.Client
	handle string // the connection's prepared handle, if any
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and returns the status, the body and the round
// trip: from just before the request is written to the last body byte.
func (c *client) post(ctx context.Context, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, rtt, err
}

// prepare registers a template and keeps its handle.
func (c *client) prepare(ctx context.Context, text string) error {
	body, _ := json.Marshal(map[string]string{"query": text}) // a string map always marshals
	status, data, _, err := c.post(ctx, "/v1/prepare", body)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("prepare %q: status %d: %s", text, status, data)
	}
	var resp struct {
		Handle string `json:"handle"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	c.handle = resp.Handle
	return nil
}

// body encodes a request for the wire.
func (c *client) body(r *request) (string, []byte, error) {
	switch r.class {
	case classPoint, classFanout:
		b, err := json.Marshal(struct {
			Handle string   `json:"handle"`
			Args   []string `json:"args"`
		}{c.handle, r.args})
		return "/v1/exec", b, err
	case classQuery:
		b, err := json.Marshal(map[string]string{"query": r.text})
		return "/v1/query", b, err
	case classBatch:
		b, err := json.Marshal(struct {
			Updates map[string][]storage.Tuple `json:"updates"`
			Deletes map[string][]storage.Tuple `json:"deletes"`
		}{r.ins, r.del})
		return "/v1/batch", b, err
	}
	return "", nil, fmt.Errorf("unknown request class %q", r.class)
}

// answers decodes an exec or query reply.
func answers(data []byte) ([]storage.Tuple, error) {
	var resp struct {
		Answers []storage.Tuple `json:"answers"`
		Count   int             `json:"count"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	if resp.Count != len(resp.Answers) {
		return nil, fmt.Errorf("count %d but %d answers", resp.Count, len(resp.Answers))
	}
	return resp.Answers, nil
}

// classStats collects one connection's outcomes.
type classStats struct {
	class string
	// lats are the round trips of successful, checked requests, in
	// completion order.
	lats      []time.Duration
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
}

func (cs *classStats) ok(rtt time.Duration) { cs.lats = append(cs.lats, rtt) }

func (cs *classStats) fail(format string, args ...any) {
	cs.failed++
	if len(cs.errs) < 5 {
		cs.errs = append(cs.errs, fmt.Sprintf(format, args...))
	}
}

// batchClock orders churn point answers against batch acknowledgements.
type batchClock struct {
	sent  atomic.Int64 // batches whose request has been started
	acked atomic.Int64 // batches acknowledged, in sequence
}

// loadPhase runs both connections closed-loop for d. When connection 1's
// stream is finite (churn's batches), the phase instead lasts until that
// stream is exhausted, giving up after churnDeadlineMult times d; with
// warm set, connection 1 of such a workload stays idle and the phase lasts
// d. The request streams continue from the given offsets.
func loadPhase(ctx context.Context, s *spec, clients [2]*client, rngs [2]*rand.Rand, offsets *[2]int, clock *batchClock, d time.Duration, warm bool) ([2]*classStats, time.Duration) {
	var out [2]*classStats
	finite := s.batches != nil && !warm
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	start := time.Now()
	deadline := start.Add(d)
	if finite {
		deadline = start.Add(churnDeadlineMult * d)
	}
	var wg sync.WaitGroup
	for i := range clients {
		out[i] = &classStats{class: s.class[i]}
		if i == 1 && s.batches != nil && warm {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, c := out[i], clients[i]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if time.Now().After(deadline) {
					halt()
					return
				}
				r := s.next[i](rngs[i], offsets[i])
				if r == nil {
					halt() // the batch stream is exhausted: the phase ends
					return
				}
				offsets[i]++
				runOne(ctx, s, c, r, cs, clock)
			}
		}(i)
	}
	wg.Wait()
	return out, time.Since(start)
}

// runOne sends one request, times it and checks the reply.
func runOne(ctx context.Context, s *spec, c *client, r *request, cs *classStats, clock *batchClock) {
	path, body, err := c.body(r)
	if err != nil {
		cs.attempted++
		cs.fail("encode: %v", err)
		return
	}
	lo := int(clock.acked.Load())
	if r.class == classBatch {
		clock.sent.Store(int64(r.seq + 1))
	}
	status, data, rtt, err := c.post(ctx, path, body)
	hi := int(clock.sent.Load())
	cs.attempted++
	if err != nil {
		cs.fail("%s: %v", r.class, err)
		return
	}
	if status != http.StatusOK {
		cs.fail("%s: status %d: %.200s", r.class, status, data)
		return
	}
	if r.class == classBatch {
		var resp struct {
			Applied bool `json:"applied"`
			Tuples  int  `json:"tuples"`
			Deleted int  `json:"deleted"`
		}
		if err := json.Unmarshal(data, &resp); err != nil || !resp.Applied ||
			resp.Tuples != len(r.ins["p1"]) || resp.Deleted != len(r.del["p1"]) {
			cs.fail("batch %d: unexpected reply %.200s", r.seq, data)
			return
		}
		clock.acked.Store(int64(r.seq + 1))
		cs.ok(rtt)
		return
	}
	got, err := answers(data)
	if err != nil {
		cs.fail("%s: bad reply: %v", r.class, err)
		return
	}
	if err := s.check(r, got, lo, hi); err != nil {
		cs.fail("wrong answer: %v", err)
		return
	}
	cs.ok(rtt)
}
