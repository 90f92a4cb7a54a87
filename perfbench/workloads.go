package main

// Workload generation. Every workload is a function of its seed: the view
// definitions, the base facts the daemon loads, the request streams of both
// connections, and the oracle each answer is checked against. The daemon
// only ever sees the generated files and requests.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Request classes. Connection 0 of every workload sends prepared point
// execs; connection 1 sends the workload's load class.
const (
	classPoint  = "point"
	classFanout = "fanout"
	classQuery  = "query"
	classBatch  = "batch"
)

// request is one generated request with what the oracle expects of it.
type request struct {
	class string
	// args binds the connection's prepared template (point, fanout).
	args []string
	// text is the one-shot query (query).
	text string
	// ins and del are the batch's inserts and deletes (batch); seq is its
	// position in the workload's fixed batch sequence.
	ins, del map[string][]storage.Tuple
	seq      int
	// want is the exact answer (read, adhoc). key names the churn point
	// whose answer depends on how many batches have been applied.
	want []storage.Tuple
	key  string
}

// version is a churn key's answer from batch count at onwards.
type version struct {
	at   int
	rows []storage.Tuple
}

// spec is one generated workload.
type spec struct {
	name  string
	views []*cq.Query
	base  *storage.Database
	cfg   server.Config
	// durable runs the daemon with -data.
	durable bool
	// prepare is the template text connection i prepares ("" when the
	// connection sends no execs).
	prepare [2]string
	class   [2]string
	// next returns connection i's n-th request, nil when the connection's
	// stream is exhausted (churn's fixed batch count).
	next [2]func(rng *rand.Rand, n int) *request
	// stored counts the tuples a daemon holds: base facts plus extents.
	stored int

	// Churn only: the fixed batch sequence, every point key's answer
	// history over it, and a query returning the whole view.
	batches   []*request
	history   map[string][]version
	viewQuery string
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"read", "adhoc", "churn"}

// generate builds the named workload from a seed. seconds scales churn's
// fixed batch count; scale shrinks the data (1 is the benchmark's size).
func generate(name string, seed int64, seconds int, scale float64) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "read":
		return genRead(rng, scale), nil
	case "adhoc":
		return genAdhoc(rng, scale)
	case "churn":
		return genChurn(rng, seconds, scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 0 {
		return v
	}
	return 1
}

// id renders a fixed-width value, so string order is numeric order.
func id(prefix string, i int) string { return fmt.Sprintf("%s%06d", prefix, i) }

// ---- read ----

// genRead: a frozen namespace serving v(A,B) :- r(A,C), s(C,B). Every a
// joins to exactly one b, and every b to exactly fanoutRows a's, so a point
// exec returns one row and a fan-out exec fanoutRows rows on every seed.
func genRead(rng *rand.Rand, scale float64) *spec {
	const cPerB, aPerC = 100, 10
	nB := scaled(200, scale)
	nC := nB * cPerB
	nA := nC * aPerC
	base := storage.NewDatabase()
	bOfA := make([]int, nA)
	cOfA := rng.Perm(nA)
	bOfC := rng.Perm(nC)
	for c := range bOfC {
		bOfC[c] %= nB
		_ = base.Insert("s", storage.Tuple{id("c", c), id("b", bOfC[c])})
	}
	aOfB := make([][]storage.Tuple, nB)
	for a := range cOfA {
		c := cOfA[a] % nC
		_ = base.Insert("r", storage.Tuple{id("a", a), id("c", c)})
		bOfA[a] = bOfC[c]
		aOfB[bOfA[a]] = append(aOfB[bOfA[a]], storage.Tuple{id("a", a)})
	}
	// Answers arrive sorted; ids are fixed-width, so generation order is
	// already sorted order.
	s := &spec{
		name:    "read",
		views:   []*cq.Query{cq.MustParseQuery("v(A,B) :- r(A,C), s(C,B).")},
		base:    base,
		prepare: [2]string{"q(B) :- r(a000000,C), s(C,B).", "q(A) :- r(A,C), s(C,b000000)."},
		class:   [2]string{classPoint, classFanout},
		stored:  nA + nC + nA,
	}
	s.next[0] = func(rng *rand.Rand, _ int) *request {
		a := rng.Intn(nA)
		return &request{class: classPoint, args: []string{id("a", a)}, want: []storage.Tuple{{id("b", bOfA[a])}}}
	}
	s.next[1] = func(rng *rand.Rand, _ int) *request {
		b := rng.Intn(nB)
		return &request{class: classFanout, args: []string{id("b", b)}, want: aOfB[b]}
	}
	return s
}

// ---- adhoc ----

// Adhoc sizes: the chain schema, its views, and the template pool. The pool
// is five times the engine's default 128-entry plan cache, so a uniform
// draw hits a cached plan about one time in five.
const (
	adhocChain    = 8
	adhocViews    = 24
	adhocMaxLen   = 4 // longest query subchain
	adhocPool     = 640
	adhocTuples   = 1500 // per chain predicate
	adhocDomain   = 3000
	adhocRequests = 4096 // pre-generated requests per connection, cycled
	adhocDraws    = 8    // view sets tried before giving up
)

// genAdhoc: a frozen namespace over an 8-predicate chain schema and random
// subchain views. Connection 1 sends one-shot queries drawn uniformly from
// a pool of distinct templates that all have an equivalent rewriting, so
// the naive answer over the base facts is the exact oracle. A view set too
// weak to rewrite adhocPool templates is redrawn.
func genAdhoc(rng *rand.Rand, scale float64) (*spec, error) {
	var views []*cq.Query
	var base *storage.Database
	var pool []*chainTemplate
	for draw := 0; len(pool) < adhocPool; draw++ {
		if draw == adhocDraws {
			return nil, fmt.Errorf("adhoc: no view set out of %d rewrites %d templates", adhocDraws, adhocPool)
		}
		views = workload.ChainViews(rng, adhocChain, true, workload.DefaultViewSpec(adhocViews))
		base = workload.ChainDatabase(rng, adhocChain, true, scaled(adhocTuples, scale), scaled(adhocDomain, scale))
		base.BuildIndexes() // the oracle's naive joins probe these
		var err error
		if pool, err = rewritablePool(rng, views, base); err != nil {
			return nil, err
		}
	}
	stored := base.TotalTuples()
	for _, v := range views {
		stored += len(datalog.EvalQueryNaive(base, v))
	}

	// The point template: the first pool template with one constant.
	var point *chainTemplate
	for _, t := range pool {
		if t.consts() == 1 {
			point = t
			break
		}
	}
	if point == nil {
		return nil, fmt.Errorf("adhoc: no single-constant template in the pool")
	}
	points := make([]*request, adhocRequests)
	for i := range points {
		q := cq.MustParseQuery(point.render(base, rng))
		points[i] = &request{class: classPoint, args: cq.CanonicalizeTemplate(q).Args, want: sorted(datalog.EvalQueryNaive(base, q))}
	}
	queries := make([]*request, adhocRequests)
	for i := range queries {
		text := pool[rng.Intn(len(pool))].render(base, rng)
		queries[i] = &request{class: classQuery, text: text, want: sorted(datalog.EvalQueryNaive(base, cq.MustParseQuery(text)))}
	}
	s := &spec{
		name:    "adhoc",
		views:   views,
		base:    base,
		prepare: [2]string{point.render(base, rng), ""},
		class:   [2]string{classPoint, classQuery},
		stored:  stored,
	}
	s.next[0] = func(_ *rand.Rand, n int) *request { return points[n%len(points)] }
	s.next[1] = func(_ *rand.Rand, n int) *request { return queries[n%len(queries)] }
	return s, nil
}

// rewritablePool runs the paper's equivalent-rewriting search once per
// candidate template, in a seeded order, and keeps the first adhocPool
// templates that have a rewriting: the engine's default strategy plans
// exactly those with an equivalent rewriting.
func rewritablePool(rng *rand.Rand, views []*cq.Query, base *storage.Database) ([]*chainTemplate, error) {
	vs, err := core.NewViewSet(views...)
	if err != nil {
		return nil, err
	}
	rw := core.NewRewriter(vs)
	cands := chainTemplates()
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	var pool []*chainTemplate
	seen := make(map[string]bool)
	for _, t := range cands {
		if len(pool) == adhocPool {
			break
		}
		tmpl := cq.CanonicalizeTemplate(cq.MustParseQuery(t.render(base, rng)))
		if fp := tmpl.Fingerprint(); !seen[fp] && rw.Exists(tmpl.PlanQuery()) {
			seen[fp] = true
			pool = append(pool, t)
		}
	}
	return pool, nil
}

// chainTemplate is a subchain p_from..p_to of the chain schema with a role
// for each of its variable positions.
type chainTemplate struct {
	from, to int
	roles    []byte // 'c' constant, 'h' head variable, 'e' existential
}

// chainTemplates enumerates every subchain of at most adhocMaxLen atoms
// with every assignment of roles that leaves a head variable.
func chainTemplates() []*chainTemplate {
	var out []*chainTemplate
	for from := 1; from <= adhocChain; from++ {
		for to := from; to < from+adhocMaxLen && to <= adhocChain; to++ {
			n := to - from + 2
			combos := 1
			for i := 0; i < n; i++ {
				combos *= 3
			}
			for c := 0; c < combos; c++ {
				roles := make([]byte, n)
				for i, x := 0, c; i < n; i, x = i+1, x/3 {
					roles[i] = "che"[x%3]
				}
				if bytes.IndexByte(roles, 'h') >= 0 {
					out = append(out, &chainTemplate{from: from, to: to, roles: roles})
				}
			}
		}
	}
	return out
}

func (t *chainTemplate) consts() int { return bytes.Count(t.roles, []byte("c")) }

// render writes the template as query text, drawing each constant from the
// column it binds so answers are often non-empty.
func (t *chainTemplate) render(base *storage.Database, rng *rand.Rand) string {
	terms := make([]string, len(t.roles))
	var head []string
	for i, r := range t.roles {
		switch r {
		case 'c':
			pred, col := fmt.Sprintf("p%d", t.from+i), 0
			if i == len(t.roles)-1 {
				pred, col = fmt.Sprintf("p%d", t.from+i-1), 1
			}
			tuples := base.Relation(pred).Tuples()
			terms[i] = tuples[rng.Intn(len(tuples))][col]
		default:
			terms[i] = fmt.Sprintf("X%d", i)
			if r == 'h' {
				head = append(head, terms[i])
			}
		}
	}
	body := make([]string, 0, t.to-t.from+1)
	for i := 0; i+1 < len(terms); i++ {
		body = append(body, fmt.Sprintf("p%d(%s,%s)", t.from+i, terms[i], terms[i+1]))
	}
	return fmt.Sprintf("q(%s) :- %s.", strings.Join(head, ","), strings.Join(body, ", "))
}

// ---- churn ----

// Churn sizes. The base is sized so the superlinear live build (ROADMAP
// item 1) shows in setup_s; the batch count is fixed per run length, so
// the WAL restart_s replays is the same size on every commit. The
// checkpoint threshold puts a checkpoint every ~575 batches, so every
// write phase holds many rather than a chance few.
const (
	churnKeys         = 5000 // distinct a values in p1
	churnCPerA        = 4    // p1 tuples per a
	churnCs           = 10000
	churnBPerC        = 2 // p2 tuples per c
	churnBs           = 5000
	churnBatchK       = 4    // inserts and deletes per batch
	churnBatchesPerS  = 1000 // batches per second of --seconds
	churnSnapshotWAL  = 128 << 10
	churnDeadlineMult = 3 // the batch loop gives up after this many run lengths
)

// genChurn: a live, durable namespace over v1(A,B) :- p1(A,C), p2(C,B).
// Connection 1 sends a fixed sequence of mixed batches (churnBatchK inserts
// and churnBatchK deletes of p1 each); connection 0 sends point execs whose
// answer is checked against every state the batches in flight allow.
func genChurn(rng *rand.Rand, seconds int, scale float64) *spec {
	nA, nC, nB := scaled(churnKeys, scale), scaled(churnCs, scale), scaled(churnBs, scale)
	base := storage.NewDatabase()
	bOfC := make([][]string, nC)
	for c := range bOfC {
		for len(bOfC[c]) < churnBPerC {
			b := id("b", rng.Intn(nB))
			if !contains(bOfC[c], b) {
				bOfC[c] = append(bOfC[c], b)
				_ = base.Insert("p2", storage.Tuple{id("c", c), b})
			}
		}
	}
	// p1 state, as a set of c indexes per a.
	cOfA := make([]map[int]bool, nA)
	for a := range cOfA {
		cOfA[a] = make(map[int]bool, churnCPerA)
		for len(cOfA[a]) < churnCPerA {
			c := rng.Intn(nC)
			if !cOfA[a][c] {
				cOfA[a][c] = true
				_ = base.Insert("p1", storage.Tuple{id("a", a), id("c", c)})
			}
		}
	}
	answer := func(a int) []storage.Tuple {
		set := make(map[string]bool)
		for c := range cOfA[a] {
			for _, b := range bOfC[c] {
				set[b] = true
			}
		}
		rows := make([]storage.Tuple, 0, len(set))
		for b := range set {
			rows = append(rows, storage.Tuple{b})
		}
		return sorted(rows)
	}
	history := make(map[string][]version, nA)
	stored := base.TotalTuples()
	for a := 0; a < nA; a++ {
		rows := answer(a)
		history[id("a", a)] = []version{{at: 0, rows: rows}}
		stored += len(rows)
	}

	// The batch sequence. Deletes retract existing p1 tuples, inserts add
	// absent ones; both are drawn over all keys, so the point stream reads
	// churned keys.
	n := churnBatchesPerS * seconds
	batches := make([]*request, n)
	for i := range batches {
		touched := make(map[int]bool)
		var ins, del []storage.Tuple
		for len(del) < churnBatchK {
			a := rng.Intn(nA)
			if touched[a] || len(cOfA[a]) == 0 {
				continue
			}
			touched[a] = true
			cs := make([]int, 0, len(cOfA[a]))
			for c := range cOfA[a] {
				cs = append(cs, c)
			}
			sort.Ints(cs)
			c := cs[rng.Intn(len(cs))]
			delete(cOfA[a], c)
			del = append(del, storage.Tuple{id("a", a), id("c", c)})
		}
		for len(ins) < churnBatchK {
			a, c := rng.Intn(nA), rng.Intn(nC)
			if touched[a] || cOfA[a][c] {
				continue
			}
			touched[a] = true
			cOfA[a][c] = true
			ins = append(ins, storage.Tuple{id("a", a), id("c", c)})
		}
		for a := range touched {
			k := id("a", a)
			history[k] = append(history[k], version{at: i + 1, rows: answer(a)})
		}
		batches[i] = &request{class: classBatch, seq: i,
			ins: map[string][]storage.Tuple{"p1": ins}, del: map[string][]storage.Tuple{"p1": del}}
	}
	s := &spec{
		name:    "churn",
		views:   []*cq.Query{cq.MustParseQuery("v1(A,B) :- p1(A,C), p2(C,B).")},
		base:    base,
		cfg:     server.Config{LiveUpdates: true, SnapshotWALBytes: churnSnapshotWAL},
		durable: true,
		prepare: [2]string{"q(B) :- p1(a000000,C), p2(C,B).", ""},
		class:   [2]string{classPoint, classBatch},
		stored:  stored,

		batches:   batches,
		history:   history,
		viewQuery: "q(A,B) :- p1(A,C), p2(C,B).",
	}
	s.next[0] = func(rng *rand.Rand, _ int) *request {
		k := id("a", rng.Intn(nA))
		return &request{class: classPoint, args: []string{k}, key: k}
	}
	s.next[1] = func(_ *rand.Rand, n int) *request {
		if n >= len(s.batches) {
			return nil
		}
		return s.batches[n]
	}
	return s
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func sorted(ts []storage.Tuple) []storage.Tuple {
	return storage.SortTuples(ts)
}

// ---- oracle ----

// check compares an answer with the oracle. lo and hi bound the number of
// churn batches that may have been applied when the answer was computed:
// at least the batches acknowledged before the request was sent, at most
// those sent before its reply arrived.
func (s *spec) check(req *request, got []storage.Tuple, lo, hi int) error {
	if req.key == "" {
		if !storage.TuplesEqual(sorted(got), req.want) {
			return fmt.Errorf("%s %v: got %d rows %s, want %d rows %s", req.class, req.args, len(got), preview(got), len(req.want), preview(req.want))
		}
		return nil
	}
	got = sorted(got)
	vs := s.history[req.key]
	for i, v := range vs {
		end := hi
		if i+1 < len(vs) {
			end = vs[i+1].at - 1
		}
		if v.at <= hi && end >= lo && storage.TuplesEqual(got, v.rows) {
			return nil
		}
	}
	return fmt.Errorf("%s %s: got %s, which no state between batch %d and %d holds", req.class, req.key, preview(got), lo, hi)
}

// viewAt is the churn view after the first n batches.
func (s *spec) viewAt(n int) []storage.Tuple {
	var view []storage.Tuple
	for key, vs := range s.history {
		rows := vs[0].rows
		for _, v := range vs {
			if v.at <= n {
				rows = v.rows
			}
		}
		for _, r := range rows {
			view = append(view, storage.Tuple{key, r[0]})
		}
	}
	return sorted(view)
}

func preview(ts []storage.Tuple) string {
	if len(ts) > 3 {
		return fmt.Sprintf("%v...", ts[:3])
	}
	return fmt.Sprintf("%v", ts)
}
