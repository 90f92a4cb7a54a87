package main

// The traced run. It first measures the untraced HTTP round trip of each
// class against one daemon, then drives the same generated requests
// in-process through the layers' public functions — cq.ParseQuery,
// engine.Engine.Prepare, engine.PreparedQuery.ExecBudget,
// engine.Engine.ApplyUpdateBudget with a mirror ivm.Maintainer receiving
// the same batches, and the JSON encoding of server.Rows — recording one
// span per call. engine.Stats deltas around each call split a span into
// its children (gate vs evaluation, planning vs compilation, WAL append vs
// publish). Requests run one at a time, so the deltas belong to the request
// that caused them. Traced and untraced requests alternate; their
// difference is the tracing overhead.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/ivm"
	"repro/internal/server"
	"repro/internal/storage"
)

// maxTracedBatches bounds churn's traced batch count; with it fixed, the
// replayed-batch count after the in-process restart depends only on the
// seed.
const maxTracedBatches = 4000

// span is one call into a layer.
type span struct {
	Req    int64   `json:"req"`
	Parent int     `json:"parent"` // index of the parent span, -1 for a request
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the traced phase began
	End    float64 `json:"end_us"`
	// Counters are engine.Stats deltas over the span, in µs or counts.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory; the traced phase is single-threaded.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req int64, parent int, name string) int {
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: us(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) float64 {
	t.spans[i].End = us(time.Since(t.t0))
	return t.spans[i].End - t.spans[i].Start
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSums accumulates one class's traced layer times (µs) and counts.
type layerSums struct {
	n        int                // traced requests
	sum      map[string]float64 // layer → total µs (or total count)
	whole    float64            // traced request time, engine path only
	nPlain   int                // untraced requests
	plain    float64            // their total time
	respSize float64
}

func newSums() *layerSums { return &layerSums{sum: map[string]float64{}} }

func (l *layerSums) mean(k string) float64 {
	if l.n == 0 {
		return 0
	}
	return l.sum[k] / float64(l.n)
}

// overhead is the traced request time over the untraced one, minus one.
func (l *layerSums) overhead() float64 {
	if l.n == 0 || l.nPlain == 0 || l.plain == 0 {
		return 0
	}
	return (l.whole/float64(l.n))/(l.plain/float64(l.nPlain)) - 1
}

// inproc is the in-process serving stack of a traced run.
type inproc struct {
	s      *spec
	ns     *server.Namespace
	mirror *ivm.Maintainer
	pq     [2]*engine.PreparedQuery
	tr     *tracer
	buf    bytes.Buffer
	sums   map[string]*layerSums
	out    *outcome
	// Plan-cache and planning totals over every prepare.
	hits, misses, memoHits, memoMisses, plans uint64
	planTime, compileTime                     time.Duration
	parses                                    int
	parseTime                                 float64
	prepareMiss, prepareHit                   float64
	nHit                                      int
	// Churn: checkpoint work observed between batches.
	checkpoints    uint64
	checkpointTime time.Duration
	walBytes       int64
	applied        int // batches applied
	snapshotBytes  int64
}

// traced runs the workload for its per-layer metrics.
func traced(ctx context.Context, s *spec, o options, dir string) (*outcome, error) {
	out := &outcome{correct: true, samples: map[string]int{}}

	// Untraced HTTP medians from one daemon, same seed and inputs.
	h, err := bootN(s, o, dir, 1, 0)
	if err != nil {
		return nil, err
	}
	stats, _, err := h.drive(ctx, s, o, time.Duration(o.seconds)*time.Second)
	h.close()
	if err != nil {
		return nil, err
	}
	var httpP50 [2]float64
	for i, cs := range stats {
		out.attempted += cs.attempted
		out.failed += cs.failed
		for _, e := range cs.errs {
			out.notes = append(out.notes, "failure: "+e)
		}
		out.samples["http_"+cs.class] = len(cs.lats)
		p50, _, err := percentiles(cs)
		if err != nil {
			return nil, err
		}
		httpP50[i] = 1000 * p50
	}

	// Set-up, in-process: parse the base file, build the namespace.
	p := &inproc{s: s, tr: &tracer{}, sums: map[string]*layerSums{}, out: out}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	f, err := os.Open(filepath.Join(h.config, server.DefaultNamespace, "base.dl"))
	if err != nil {
		return nil, err
	}
	base, err := storage.ReadDatabase(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	parseS := time.Since(t).Seconds()
	cfg := s.cfg
	if s.durable {
		cfg.DataDir = filepath.Join(dir, "trace-data")
	}
	t = time.Now()
	p.ns, err = server.NewNamespace(server.DefaultNamespace, base, s.views, cfg)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t).Seconds()
	base = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heapPerTuple := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(s.stored)
	if s.batches != nil {
		if p.mirror, err = ivm.New(s.base, s.views, ivm.Options{Workers: 1}); err != nil {
			return nil, err
		}
	}

	// The traced phase: the connections' templates, then both request
	// streams interleaved one request at a time.
	p.tr.t0 = time.Now()
	var req int64
	for i, text := range s.prepare {
		if text == "" {
			continue
		}
		req++
		pr, err := p.prepare(req, -1, text)
		if err != nil {
			return nil, err
		}
		p.pq[i] = pr.pq
	}
	st0 := p.ns.Engine.Stats()
	rngs := [2]*rand.Rand{rand.New(rand.NewSource(o.seed*7919 + 0)), rand.New(rand.NewSource(o.seed*7919 + 1))}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	nBatches := min(len(s.batches), maxTracedBatches)
	for n := 0; ; n++ {
		if s.batches != nil {
			if n >= nBatches {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		for i := range s.next {
			r := s.next[i](rngs[i], n)
			req++
			if err := p.run(ctx, req, i, r, n%2 == 1); err != nil {
				return nil, err
			}
		}
	}
	st1 := p.ns.Engine.Stats()
	if err := p.tr.write(filepath.Join(o.work, "traces", fmt.Sprintf("%s-%d.jsonl", s.name, o.seed))); err != nil {
		return nil, err
	}

	var restart engine.DurableStats
	if s.durable {
		// A crash in-process: abandon the engine without Close (no final
		// checkpoint) and recover a new one from the same directory.
		p.snapshotBytes = st1.Durable.SnapshotBytes
		ns2, err := server.NewNamespace(server.DefaultNamespace, storage.NewDatabase(), s.views, cfg)
		if err != nil {
			return nil, fmt.Errorf("in-process restart: %w", err)
		}
		restart = ns2.Engine.Stats().Durable
		if restart.LSN != uint64(nBatches) || uint64(restart.RecoveredBatches) != restart.LSN-restart.SnapshotLSN {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("failure: in-process recovery at LSN %d replayed %d batches over a snapshot at LSN %d after %d batches",
				restart.LSN, restart.RecoveredBatches, restart.SnapshotLSN, nBatches))
		}
	}

	p.report(st0, st1, restart, httpP50, parseS, buildS, heapPerTuple)
	out.correct = out.correct && out.failed == 0
	return out, nil
}

// prepared is one traced prepare: the handle and its layer times (µs).
type prepared struct {
	pq                         *engine.PreparedQuery
	hit                        bool
	parse, prep, plan, compile float64
}

// prepare parses and prepares a query text under spans, recording whether
// the plan cache hit.
func (p *inproc) prepare(req int64, parent int, text string) (prepared, error) {
	var r prepared
	sp := p.tr.begin(req, parent, "cq.ParseQuery")
	q, err := cq.ParseQuery(text)
	r.parse = p.tr.end(sp)
	if err != nil {
		return r, err
	}
	p.parses++
	p.parseTime += r.parse
	before := p.ns.Engine.Stats()
	sp = p.tr.begin(req, parent, "engine.Prepare")
	r.pq, err = p.ns.Engine.Prepare(q)
	r.prep = p.tr.end(sp)
	if err != nil {
		return r, err
	}
	after := p.ns.Engine.Stats()
	r.hit = after.Misses == before.Misses
	if r.hit {
		p.prepareHit += r.prep
		p.nHit++
	} else {
		p.prepareMiss += r.prep
		plan, plans := planDelta(before, after)
		r.plan = us(plan)
		r.compile = us(after.CompileTime - before.CompileTime)
		p.plans += plans
		p.planTime += plan
	}
	p.tr.spans[sp].Counters = map[string]float64{"plan_us": r.plan, "compile_us": r.compile}
	p.hits += after.Hits - before.Hits
	p.misses += after.Misses - before.Misses
	p.memoHits += after.MemoHits - before.MemoHits
	p.memoMisses += after.MemoMisses - before.MemoMisses
	p.compileTime += after.CompileTime - before.CompileTime
	return r, nil
}

// planDelta sums planning time and plan count over every strategy.
func planDelta(before, after engine.Stats) (time.Duration, uint64) {
	var d time.Duration
	var n uint64
	for s, a := range after.PerStrategy {
		b := before.PerStrategy[s]
		d += a.PlanTime - b.PlanTime
		n += a.Plans - b.Plans
	}
	return d, n
}

func (p *inproc) sumsFor(class string) *layerSums {
	l, ok := p.sums[class]
	if !ok {
		l = newSums()
		p.sums[class] = l
	}
	return l
}

// run executes one request in-process, traced or not, and checks it.
func (p *inproc) run(ctx context.Context, req int64, conn int, r *request, trace bool) error {
	l := p.sumsFor(r.class)
	eng := p.ns.Engine
	if r.class == classBatch {
		return p.batch(ctx, req, r, l, trace)
	}
	if !trace {
		start := time.Now()
		got, err := p.answer(ctx, conn, r)
		l.plain += us(time.Since(start))
		l.nPlain++
		return p.check(r, got, err)
	}
	root := p.tr.begin(req, -1, r.class)
	start := time.Now()
	pq := p.pq[conn]
	args := r.args
	if r.class == classQuery {
		pr, err := p.prepare(req, root, r.text)
		if err != nil {
			return p.check(r, nil, err)
		}
		pq, args = pr.pq, pr.pq.Args()
		l.sum["parse"] += pr.parse
		if pr.hit {
			l.sum["prepare_hit"] += pr.prep
		} else {
			l.sum["prepare_miss"] += pr.prep
		}
	}
	before := eng.Stats()
	sp := p.tr.begin(req, root, "engine.PreparedQuery.ExecBudget")
	got, err := pq.ExecBudget(ctx, p.ns.Budget, args...)
	exec := p.tr.end(sp)
	after := eng.Stats()
	if err != nil {
		return p.check(r, nil, err)
	}
	eval := us(after.ExecTime - before.ExecTime)
	p.tr.spans[sp].Counters = map[string]float64{"eval_us": eval, "rows": float64(len(got))}
	sp = p.tr.begin(req, root, "server.Rows.encode")
	size, err := p.encode(server.Rows(got))
	enc := p.tr.end(sp)
	whole := us(time.Since(start))
	p.tr.end(root)
	l.n++
	l.whole += whole
	l.sum["exec_gate"] += exec - eval
	l.sum["eval"] += eval
	l.sum["encode"] += enc
	l.sum["rows"] += float64(len(got))
	l.respSize += float64(size)
	return p.check(r, got, err)
}

// answer runs a point, fan-out or query request without tracing.
func (p *inproc) answer(ctx context.Context, conn int, r *request) ([]storage.Tuple, error) {
	pq := p.pq[conn]
	args := r.args
	if r.class == classQuery {
		q, err := cq.ParseQuery(r.text)
		if err != nil {
			return nil, err
		}
		if pq, err = p.ns.Engine.Prepare(q); err != nil {
			return nil, err
		}
		args = pq.Args()
	}
	got, err := pq.ExecBudget(ctx, p.ns.Budget, args...)
	if err != nil {
		return nil, err
	}
	_, err = p.encode(server.Rows(got))
	return got, err
}

// encode marshals a reply the way the daemon does, returning its size.
func (p *inproc) encode(rows server.Rows) (int, error) {
	p.buf.Reset()
	err := json.NewEncoder(&p.buf).Encode(struct {
		Answers server.Rows `json:"answers"`
		Count   int         `json:"count"`
	}{rows, len(rows)})
	return p.buf.Len(), err
}

// check records a traced-run request's outcome against the oracle. In the
// traced run every batch is applied before the next point, so a churn
// point must see exactly the batches applied so far.
func (p *inproc) check(r *request, got []storage.Tuple, err error) error {
	p.out.attempted++
	if err == nil {
		err = p.s.check(r, got, p.applied, p.applied)
	}
	if err != nil {
		p.out.failed++
		p.out.correct = false
		if p.out.failed <= 5 {
			p.out.notes = append(p.out.notes, fmt.Sprintf("failure: traced %s: %v", r.class, err))
		}
	}
	return nil
}

// batch applies one churn batch to the engine and, under its own span, to
// the mirror maintainer, then waits out any background checkpoint the
// batch triggered so checkpoints land at the same batch on every run.
func (p *inproc) batch(ctx context.Context, req int64, r *request, l *layerSums, trace bool) error {
	eng := p.ns.Engine
	before := eng.Stats()
	var root, sp int
	if trace {
		root = p.tr.begin(req, -1, r.class)
		sp = p.tr.begin(req, root, "engine.ApplyUpdateBudget")
	}
	start := time.Now()
	err := eng.ApplyUpdateBudget(ctx, r.ins, r.del, p.ns.Budget)
	update := us(time.Since(start))
	var size int
	if err == nil {
		size, err = p.encodeBatch(r)
	}
	whole := us(time.Since(start))
	p.out.attempted++
	if err != nil {
		p.out.failed++
		p.out.correct = false
		p.out.notes = append(p.out.notes, fmt.Sprintf("failure: traced batch %d: %v", r.seq, err))
		return fmt.Errorf("traced batch %d: %w", r.seq, err)
	}
	p.applied++
	after := eng.Stats()
	if !trace {
		l.plain += whole
		l.nPlain++
		if _, err := p.mirror.ApplyUpdateCtx(ctx, r.ins, r.del, datalog.Limits{}); err != nil {
			return fmt.Errorf("mirror batch %d: %w", r.seq, err)
		}
	} else {
		p.tr.end(sp)
		sp = p.tr.begin(req, root, "ivm.Maintainer.ApplyUpdateCtx")
		t := time.Now()
		if _, err := p.mirror.ApplyUpdateCtx(ctx, r.ins, r.del, datalog.Limits{}); err != nil {
			return fmt.Errorf("mirror batch %d: %w", r.seq, err)
		}
		propagate := us(time.Since(t))
		p.tr.end(sp)
		p.tr.end(root)
		maintain := us(after.MaintainTime - before.MaintainTime)
		wal := us(after.Durable.WALAppendTime - before.Durable.WALAppendTime)
		l.n++
		l.whole += whole
		l.sum["update"] += update
		l.sum["update_gate"] += update - maintain
		l.sum["propagate"] += propagate
		l.sum["wal_append"] += wal
		l.sum["publish"] += maintain - wal - propagate
		l.sum["encode"] += whole - update
		l.respSize += float64(size)
		if after.Durable.Snapshots == before.Durable.Snapshots && after.Durable.WALBytes > before.Durable.WALBytes {
			p.walBytes += after.Durable.WALBytes - before.Durable.WALBytes
			l.sum["wal_batches"]++
		}
	}
	return p.settle(after)
}

// settle waits for the background checkpoint a batch may have triggered.
func (p *inproc) settle(after engine.Stats) error {
	if after.Durable.WALBytes < p.s.cfg.SnapshotWALBytes {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.ns.Engine.Stats()
		if st.Durable.Snapshots > after.Durable.Snapshots {
			p.checkpoints += st.Durable.Snapshots - after.Durable.Snapshots
			p.checkpointTime += st.Durable.SnapshotTime - after.Durable.SnapshotTime
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("background checkpoint did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *inproc) encodeBatch(r *request) (int, error) {
	p.buf.Reset()
	err := json.NewEncoder(&p.buf).Encode(struct {
		Applied    bool `json:"applied"`
		Predicates int  `json:"predicates"`
		Tuples     int  `json:"tuples"`
		Deleted    int  `json:"deleted,omitempty"`
	}{true, 1, len(r.ins["p1"]), len(r.del["p1"])})
	return p.buf.Len(), err
}

// report turns the traced run into per-layer metrics and accounting notes.
func (p *inproc) report(st0, st1 engine.Stats, restart engine.DurableStats, httpP50 [2]float64, parseS, buildS, heapPerTuple float64) {
	s, out := p.s, p.out
	point, load := p.sumsFor(s.class[0]), p.sumsFor(s.class[1])
	pointInproc := point.mean("exec_gate") + point.mean("eval") + point.mean("encode")
	loadLayers := loadLayerNames(s.class[1])
	loadInproc := 0.0
	for _, k := range loadLayers {
		loadInproc += load.mean(k)
	}
	perBatch := func(v uint64) float64 {
		if p.applied == 0 {
			return 0
		}
		return float64(v) / float64(p.applied)
	}
	var walPerBatch float64
	if n := load.sum["wal_batches"]; n > 0 {
		walPerBatch = float64(p.walBytes) / n
	}
	var rowsPerFanout float64
	if l, ok := p.sums[classFanout]; ok {
		rowsPerFanout = l.mean("rows")
	}
	// Overhead over both classes, weighted by request count.
	var tw, pw float64
	var tn, pn int
	for _, l := range p.sums {
		tw, tn, pw, pn = tw+l.whole, tn+l.n, pw+l.plain, pn+l.nPlain
	}
	overhead := 0.0
	if tn > 0 && pn > 0 && pw > 0 {
		overhead = 100 * ((tw/float64(tn))/(pw/float64(pn)) - 1)
	}
	compileN := p.misses
	out.metrics = append(out.metrics,
		metric{"server.point_self_us", httpP50[0] - pointInproc, "us"},
		metric{"server.load_self_us", httpP50[1] - loadInproc, "us"},
		metric{"server.encode_load_us", load.mean("encode"), "us"},
		metric{"server.load_resp_bytes", load.respSize / float64(max(load.n, 1)), "B"},
		metric{"engine.exec_gate_us", point.mean("exec_gate"), "us"},
		metric{"datalog.eval_point_us", point.mean("eval"), "us"},
		metric{"cq.parse_us", p.parseTime / float64(max(p.parses, 1)), "us"},
		metric{"engine.prepare_miss_us", p.prepareMiss / float64(max(p.misses, 1)), "us"},
		metric{"core.plan_us", perOp(p.planTime, p.plans), "us"},
		metric{"datalog.compile_us", perOp(p.compileTime, compileN), "us"},
		metric{"engine.plan_cache_hit_ratio", ratio(p.hits, p.misses), "ratio"},
		metric{"containment.memo_hit_ratio", ratio(p.memoHits, p.memoMisses), "ratio"},
		metric{"setup.parse_s", parseS, "s"},
		metric{"setup.build_s", buildS, "s"},
		metric{"storage.heap_bytes_per_tuple", heapPerTuple, "B"},
		metric{"datalog.rows_per_fanout", rowsPerFanout, "count"},
		metric{"ivm.derived_per_batch", perBatch(st1.DeltaDerived - st0.DeltaDerived), "count"},
		metric{"ivm.retracted_per_batch", perBatch(st1.DeltaRetracted - st0.DeltaRetracted), "count"},
		metric{"durable.wal_bytes_per_batch", walPerBatch, "B"},
		metric{"durable.checkpoints", float64(p.checkpoints), "count"},
		metric{"durable.replayed_batches", float64(restart.RecoveredBatches), "count"},
		metric{"trace.overhead_pct", overhead, "%"},
	)
	for c, l := range p.sums {
		out.samples["traced_"+c] = l.n
		out.samples["untraced_"+c] = l.nPlain
	}

	// Per-layer figures of one class only: the report prints them, the
	// result line carries only the metrics every workload reports.
	out.extra = append(out.extra, metric{"storage.tuples", float64(s.stored), "count"})
	switch s.class[1] {
	case classFanout:
		out.extra = append(out.extra,
			metric{"server.encode_fanout_us", load.mean("encode"), "us"},
			metric{"server.fanout_resp_bytes", load.respSize / float64(max(load.n, 1)), "B"},
			metric{"datalog.eval_fanout_us", load.mean("eval"), "us"})
	case classQuery:
		out.extra = append(out.extra,
			metric{"engine.prepare_hit_us", p.prepareHit / float64(max(p.nHit, 1)), "us"},
			metric{"datalog.eval_query_us", load.mean("eval"), "us"})
	case classBatch:
		out.extra = append(out.extra,
			metric{"engine.update_us", load.mean("update"), "us"},
			metric{"ivm.propagate_us", load.mean("propagate"), "us"},
			metric{"engine.publish_us", load.mean("publish"), "us"},
			metric{"durable.wal_append_us", load.mean("wal_append"), "us"},
			metric{"durable.checkpoint_ms", ms(p.checkpointTime) / float64(max(p.checkpoints, 1)), "ms"},
			metric{"durable.cold_start_ms", ms(restart.ColdStart), "ms"},
			metric{"durable.replay_ms", ms(restart.ReplayTime), "ms"},
			metric{"durable.snapshot_bytes", float64(p.snapshotBytes), "B"})
	}

	// Trace accounting: each class's untraced HTTP median against its
	// traced layers. What the in-process calls do not cover is the
	// server's own share (HTTP, wire decode, session lookup, the client);
	// the gap between a traced request and its layer spans is unattributed.
	classes := []struct {
		name   string
		l      *layerSums
		layers []string
		p50    float64
	}{
		{s.class[0], point, []string{"exec_gate", "eval", "encode"}, httpP50[0]},
		{s.class[1], load, loadLayers, httpP50[1]},
	}
	for _, c := range classes {
		var parts []string
		sum := 0.0
		for _, k := range c.layers {
			sum += c.l.mean(k)
			parts = append(parts, fmt.Sprintf("%s %.2f", k, c.l.mean(k)))
		}
		whole := 0.0
		if c.l.n > 0 {
			whole = c.l.whole / float64(c.l.n)
		}
		unattributed := whole - sum
		within := "within"
		if math.Abs(unattributed) > math.Abs(c.l.overhead())*whole {
			within = "beyond"
		}
		out.notes = append(out.notes, fmt.Sprintf(
			"accounting %s: untraced HTTP p50 %.2f us = server %.2f + traced layers %.2f [%s]; traced request %.2f us leaves %.2f us unattributed, %s the %.1f%% tracing overhead",
			c.name, c.p50, c.p50-sum, sum, strings.Join(parts, ", "), whole, unattributed, within, 100*c.l.overhead()))
	}
	sort.Strings(out.notes)
}

// loadLayerNames lists the traced layers of a load class, in call order.
func loadLayerNames(class string) []string {
	switch class {
	case classQuery:
		return []string{"parse", "prepare_miss", "prepare_hit", "exec_gate", "eval", "encode"}
	case classBatch:
		return []string{"update_gate", "propagate", "wal_append", "publish", "encode"}
	}
	return []string{"exec_gate", "eval", "encode"}
}
