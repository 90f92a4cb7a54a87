package main

// Evaluator benchmark harness: measures the warm, cold and parallel paths
// of the compiled slot-based executor against the retained tuple-at-a-time
// interpreter on the serving-shaped workloads, and writes the results as
// machine-readable JSON (BENCH_eval.json) so successive PRs can track the
// evaluator's performance trajectory.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/inverserules"
	"repro/internal/ivm"
	"repro/internal/minicon"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BenchPoint is one measured route.
type BenchPoint struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// EvalBenchResult is one workload's measurements.
type EvalBenchResult struct {
	Name    string `json:"name"`
	Query   string `json:"query"`
	Tuples  int    `json:"tuples"`
	Answers int    `json:"answers"`
	// Interp is the tuple-at-a-time interpreter (the pre-compilation
	// evaluator): map bindings, per-call greedy ordering.
	Interp BenchPoint `json:"interp"`
	// Cold compiles the plan and runs it once per op.
	Cold BenchPoint `json:"cold"`
	// Warm runs a precompiled plan per op — the engine's steady state.
	Warm BenchPoint `json:"warm"`
	// Parallel runs the precompiled plan with EvalParallel(GOMAXPROCS).
	Parallel BenchPoint `json:"parallel"`
	// WarmSpeedupVsInterp is Interp.NsPerOp / Warm.NsPerOp.
	WarmSpeedupVsInterp float64 `json:"warm_speedup_vs_interp"`
	// WarmAllocReductionVsInterp is Interp.Allocs / Warm.Allocs.
	WarmAllocReductionVsInterp float64 `json:"warm_alloc_reduction_vs_interp"`
}

// ProgramBenchResult is one recursive-program workload's measurements:
// interpretive fixpoint vs the compiled semi-naive executor.
type ProgramBenchResult struct {
	Name string `json:"name"`
	// Rules is the number of rules in the program.
	Rules int `json:"rules"`
	// Tuples is the EDB size; Derived the IDB tuples the fixpoint adds;
	// Iterations the semi-naive rounds.
	Tuples     int `json:"tuples"`
	Derived    int `json:"derived"`
	Iterations int `json:"iterations"`
	// Interp is Program.EvalInterp, the tuple-at-a-time baseline.
	Interp BenchPoint `json:"interp"`
	// Cold compiles the program and evaluates once per op.
	Cold BenchPoint `json:"cold"`
	// Warm evaluates a precompiled program per op (Eval: returns the full
	// EDB+IDB database, clone included — the like-for-like comparison).
	Warm BenchPoint `json:"warm"`
	// WarmServing is EvalRelation on the precompiled program: the engine's
	// steady state, answer relation only, no database clone.
	WarmServing BenchPoint `json:"warm_serving"`
	// WarmSpeedupVsInterp is Interp.NsPerOp / Warm.NsPerOp.
	WarmSpeedupVsInterp float64 `json:"warm_speedup_vs_interp"`
}

// IVMBenchResult compares incremental maintenance of materialized extents
// against full re-materialization for one workload and delta size.
type IVMBenchResult struct {
	Name string `json:"name"`
	// BaseTuples is the base database size; ExtentTuples the total
	// materialized (derived) tuples before the delta.
	BaseTuples   int `json:"base_tuples"`
	ExtentTuples int `json:"extent_tuples"`
	// DeltaTuples is the batch size; DeltaDerived the extent tuples one
	// batch derived.
	DeltaTuples  int `json:"delta_tuples"`
	DeltaDerived int `json:"delta_derived"`
	// DeltaDeleted is the batch's base-retraction count and DeltaRetracted
	// the extent tuples those retractions removed — non-monotone points
	// (delete-heavy, mixed churn, DRed) only.
	DeltaDeleted   int `json:"delta_deleted,omitempty"`
	DeltaRetracted int `json:"delta_retracted,omitempty"`
	// FullNs re-materializes every extent from the updated base; DeltaNs
	// runs the compiled delta propagation for the same batch.
	FullNs  float64 `json:"full_ns_per_op"`
	DeltaNs float64 `json:"delta_ns_per_op"`
	// Speedup is FullNs / DeltaNs.
	Speedup float64 `json:"speedup_delta_vs_full"`
}

// PreparedBenchResult measures one varying-constant query stream through
// the serving engine: per-query cost of planning from scratch (what every
// distinct constant paid before template caching), of Answer (template
// canonicalisation + cache hit + bound execution) and of prepared Exec
// (bound execution only).
type PreparedBenchResult struct {
	Name     string `json:"name"`
	Strategy string `json:"strategy"`
	// Queries is the stream length; Tuples the serving database size.
	Queries int `json:"queries"`
	Tuples  int `json:"tuples"`
	// ColdNsPerQuery plans, compiles and executes each query from scratch
	// (rewriting search included) — the per-query cost of a cache miss.
	ColdNsPerQuery float64 `json:"cold_ns_per_query"`
	// AnswerNsPerQuery streams the queries through Engine.Answer: the
	// whole stream shares one template plan.
	AnswerNsPerQuery float64 `json:"answer_ns_per_query"`
	// PreparedNsPerQuery streams the bindings through PreparedQuery.Exec.
	PreparedNsPerQuery float64 `json:"prepared_ns_per_query"`
	// CacheMisses/CacheHits witness the template sharing over one Answer
	// pass of the stream (one miss, len-1 hits).
	CacheMisses uint64 `json:"cache_misses"`
	CacheHits   uint64 `json:"cache_hits"`
	// SpeedupPreparedVsCold is ColdNsPerQuery / PreparedNsPerQuery;
	// SpeedupAnswerVsCold the same for the Answer route.
	SpeedupPreparedVsCold float64 `json:"speedup_prepared_vs_cold"`
	SpeedupAnswerVsCold   float64 `json:"speedup_answer_vs_cold"`
}

// EvalBenchReport is the top-level BENCH_eval.json document.
type EvalBenchReport struct {
	Command    string            `json:"command"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Workloads  []EvalBenchResult `json:"workloads"`
	// Programs are the recursive fixpoint workloads (compiled semi-naive
	// executor vs interpretive baseline).
	Programs []ProgramBenchResult `json:"programs"`
	// IVM compares delta maintenance against full re-materialization at
	// varying delta sizes (the live-engine update path).
	IVM []IVMBenchResult `json:"ivm"`
	// Prepared compares cold per-query planning, template-cached Answer
	// and prepared Exec on varying-constant point-lookup streams.
	Prepared []PreparedBenchResult `json:"prepared"`
	// Governance measures the cost of the context-aware execution paths
	// (-governance): legacy evaluation against the same evaluation with a
	// live cancellation guard (cancelable context, amortized polling).
	Governance []GovernanceBenchResult `json:"governance,omitempty"`
	// Durability measures the snapshot + WAL subsystem: cold start from a
	// checkpoint against full re-materialization, snapshot write cost, and
	// WAL replay throughput after an uncheckpointed crash.
	Durability []DurabilityBenchResult `json:"durability,omitempty"`
}

// GovernanceBenchResult is one workload's cancellation-guard overhead
// measurement: the legacy (guard-free) path against the context-aware path
// carrying a live guard, interleaved in one process. OverheadPct is the
// governed slowdown in percent; the CI gate requires it under 3%.
type GovernanceBenchResult struct {
	Name       string  `json:"name"`
	Tuples     int     `json:"tuples"`
	Answers    int     `json:"answers,omitempty"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	GovernedNs float64 `json:"governed_ns_per_op"`
	// OverheadPct = (GovernedNs/BaselineNs - 1) * 100.
	OverheadPct float64 `json:"overhead_pct"`
}

type evalWorkload struct {
	name string
	db   *storage.Database
	q    *cq.Query
}

// evalWorkloads mirrors the Benchmark* workloads in internal/datalog:
// serving-shaped queries where the join loop, not answer materialisation,
// carries the cost — plus the projection/decomposition shapes for coverage.
func evalWorkloads() []evalWorkload {
	var ws []evalWorkload

	rng := rand.New(rand.NewSource(51))
	ws = append(ws, evalWorkload{"chain5", workload.ChainDatabase(rng, 5, true, 2000, 2000), workload.ChainQuery(5, true)})

	rng = rand.New(rand.NewSource(55))
	point := workload.ChainQuery(6, true)
	point.Body[0].Args[0] = cq.Const("c0")
	point.Head.Args = point.Head.Args[1:]
	ws = append(ws, evalWorkload{"point_lookup", workload.ChainDatabase(rng, 6, true, 5000, 4000), point})

	rng = rand.New(rand.NewSource(57))
	ws = append(ws, evalWorkload{"needle", workload.ChainDatabase(rng, 5, true, 2000, 4000), workload.ChainQuery(5, true)})

	rng = rand.New(rand.NewSource(56))
	comp := workload.ChainQuery(4, true)
	comp.AddComparison(cq.NewComparison(cq.Var("X0"), cq.Lt, cq.Var("X1")))
	ws = append(ws, evalWorkload{"comparison", workload.ChainDatabase(rng, 4, true, 1500, 1500), comp})

	rng = rand.New(rand.NewSource(52))
	starDB := workload.RandomDatabase(rng, []string{"p1", "p2", "p3", "p4"}, 2, 1200, 1500)
	ws = append(ws, evalWorkload{"star4", starDB, workload.StarQuery(4, true)})

	rng = rand.New(rand.NewSource(53))
	dcDB := storage.NewDatabase()
	for i := 0; i < 1500; i++ {
		dcDB.Insert("v", storage.Tuple{
			fmt.Sprint(rng.Intn(6)), fmt.Sprint(rng.Intn(7)),
			fmt.Sprint(rng.Intn(5)), fmt.Sprint(i),
		})
	}
	ws = append(ws, evalWorkload{"dont_care", dcDB,
		cq.MustParseQuery("q(X0,X3) :- v(X0,X1,F0,F1), v(F2,X1,X2,F3), v(F4,F5,X2,X3)")})

	rng = rand.New(rand.NewSource(54))
	disDB := storage.NewDatabase()
	for i := 0; i < 600; i++ {
		disDB.Insert("v1", storage.Tuple{fmt.Sprint(rng.Intn(600))})
		disDB.Insert("v2", storage.Tuple{fmt.Sprint(rng.Intn(600))})
		disDB.Insert("v3", storage.Tuple{fmt.Sprint(rng.Intn(600))})
	}
	ws = append(ws, evalWorkload{"disconnected", disDB, cq.MustParseQuery("q(X) :- v1(X), v2(A), v3(B)")})

	return ws
}

type programWorkload struct {
	name       string
	db         *storage.Database
	prog       *datalog.Program
	answerPred string
}

// programWorkloads mirrors the BenchmarkProgram* workloads in
// internal/datalog: recursive transitive closures (acyclic and cyclic) and
// the inverse-rules serving program, the shapes the ISSUE acceptance
// criteria track.
func programWorkloads() []programWorkload {
	var ws []programWorkload
	tc := func() *datalog.Program {
		return datalog.NewProgram(
			datalog.RuleFromQuery(cq.MustParseQuery("tc(X,Y) :- e(X,Y)")),
			datalog.RuleFromQuery(cq.MustParseQuery("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
		)
	}

	rng := rand.New(rand.NewSource(61))
	chain := storage.NewDatabase()
	for i := 0; i < 120; i++ {
		chain.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	for i := 0; i < 40; i++ {
		from := rng.Intn(120)
		chain.Insert("e", storage.Tuple{fmt.Sprint(from), fmt.Sprint(from + 1 + rng.Intn(5))})
	}
	ws = append(ws, programWorkload{"tc_chain", chain, tc(), "tc"})

	rng = rand.New(rand.NewSource(62))
	cyc := storage.NewDatabase()
	const n = 60
	for i := 0; i < n; i++ {
		cyc.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint((i + 1) % n)})
	}
	for i := 0; i < 2*n; i++ {
		cyc.Insert("e", storage.Tuple{fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n))})
	}
	ws = append(ws, programWorkload{"tc_cycle", cyc, tc(), "tc"})

	// Inverse-rules serving: invert v1(A,B) :- r(A,C), s(C,B) and
	// v2(A,B) :- r(A,B) over materialised extents, then answer
	// q(X,Y) :- r(X,Z), s(Z,Y) — built through the real inverter.
	rng = rand.New(rand.NewSource(63))
	viewDB := storage.NewDatabase()
	for i := 0; i < 2000; i++ {
		viewDB.Insert("v1", storage.Tuple{fmt.Sprint(rng.Intn(800)), fmt.Sprint(rng.Intn(800))})
		viewDB.Insert("v2", storage.Tuple{fmt.Sprint(rng.Intn(800)), fmt.Sprint(rng.Intn(800))})
	}
	views := []*cq.Query{
		cq.MustParseQuery("v1(A,B) :- r(A,C), s(C,B)"),
		cq.MustParseQuery("v2(A,B) :- r(A,B)"),
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	prog, err := inverserules.Program(q, views)
	if err != nil {
		panic(err)
	}
	ws = append(ws, programWorkload{"inverse_serving", viewDB, prog, "q"})
	return ws
}

func toPoint(r testing.BenchmarkResult) BenchPoint {
	return BenchPoint{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runEvalBench measures every workload and writes the JSON report to path
// ("-" prints to stdout only). The workloads/programs/ivm/prepared sections
// are replaced; sections owned by other modes (governance, durability)
// are preserved when the file already exists.
func runEvalBench(path string) error {
	var report EvalBenchReport
	if path != "-" {
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &report); err != nil {
				return fmt.Errorf("parse existing %s: %w", path, err)
			}
		}
	}
	report.Command = "aqvbench -evalbench " + path
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.Workloads = nil
	report.Programs = nil
	report.IVM = nil
	report.Prepared = nil
	report.Durability = nil
	for _, w := range evalWorkloads() {
		w.db.BuildIndexes()
		cat := cost.NewCatalog(w.db)
		rowCat := cost.NewRowCatalog(w.db)
		plan := datalog.Compile(w.q, cat)
		res := EvalBenchResult{
			Name:    w.name,
			Query:   w.q.String(),
			Tuples:  w.db.TotalTuples(),
			Answers: len(plan.Eval(w.db)),
		}
		db, q := w.db, w.q
		res.Interp = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				datalog.EvalQueryInterp(db, q)
			}
		}))
		res.Cold = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				datalog.Compile(q, rowCat).Eval(db)
			}
		}))
		res.Warm = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.Eval(db)
			}
		}))
		workers := runtime.GOMAXPROCS(0)
		res.Parallel = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.EvalParallel(db, workers)
			}
		}))
		if res.Warm.NsPerOp > 0 {
			res.WarmSpeedupVsInterp = res.Interp.NsPerOp / res.Warm.NsPerOp
		}
		if res.Warm.AllocsPerOp > 0 {
			res.WarmAllocReductionVsInterp = float64(res.Interp.AllocsPerOp) / float64(res.Warm.AllocsPerOp)
		}
		fmt.Printf("%-14s answers=%-6d interp=%.0fns warm=%.0fns (%.2fx) parallel=%.0fns allocs %d->%d (%.1fx)\n",
			res.Name, res.Answers, res.Interp.NsPerOp, res.Warm.NsPerOp, res.WarmSpeedupVsInterp,
			res.Parallel.NsPerOp, res.Interp.AllocsPerOp, res.Warm.AllocsPerOp, res.WarmAllocReductionVsInterp)
		report.Workloads = append(report.Workloads, res)
	}
	for _, w := range programWorkloads() {
		w.db.BuildIndexes()
		cat := cost.NewCatalog(w.db)
		rowCat := cost.NewRowCatalog(w.db)
		cp, err := datalog.CompileProgram(w.prog, cat)
		if err != nil {
			return err
		}
		_, fst, err := cp.EvalRelation(w.db, w.answerPred, 1)
		if err != nil {
			return err
		}
		res := ProgramBenchResult{
			Name:       w.name,
			Rules:      len(w.prog.Rules),
			Tuples:     w.db.TotalTuples(),
			Derived:    fst.Derived,
			Iterations: fst.Iterations,
		}
		db, prog, pred := w.db, w.prog, w.answerPred
		res.Interp = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prog.EvalInterp(db); err != nil {
					b.Fatal(err)
				}
			}
		}))
		res.Cold = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp2, err := datalog.CompileProgram(prog, rowCat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cp2.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		}))
		res.Warm = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cp.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		}))
		res.WarmServing = toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cp.EvalRelation(db, pred, 1); err != nil {
					b.Fatal(err)
				}
			}
		}))
		if res.Warm.NsPerOp > 0 {
			res.WarmSpeedupVsInterp = res.Interp.NsPerOp / res.Warm.NsPerOp
		}
		fmt.Printf("%-16s derived=%-6d rounds=%-3d interp=%.0fns warm=%.0fns (%.2fx) serving=%.0fns allocs %d->%d\n",
			res.Name, res.Derived, res.Iterations, res.Interp.NsPerOp, res.Warm.NsPerOp,
			res.WarmSpeedupVsInterp, res.WarmServing.NsPerOp, res.Interp.AllocsPerOp, res.Warm.AllocsPerOp)
		report.Programs = append(report.Programs, res)
	}

	if err := runIVMBench(&report); err != nil {
		return err
	}
	if err := runPreparedBench(&report); err != nil {
		return err
	}
	if err := runDurabilityBench(&report); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runPreparedBench measures the prepared-query serving path on streams of
// point lookups differing only in their constants: every query shares one
// template, so the whole stream compiles exactly one plan. The cold column
// re-runs the rewriting search and physical compilation per query — what
// each distinct constant cost when plans were cached per fingerprint.
func runPreparedBench(report *EvalBenchReport) error {
	const streamLen = 1000
	const reps = 3

	rng := rand.New(rand.NewSource(81))
	base := storage.NewDatabase()
	for i := 0; i < 4000; i++ {
		base.Insert("r", storage.Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("m%d", rng.Intn(200))})
	}
	for j := 0; j < 200; j++ {
		base.Insert("s", storage.Tuple{fmt.Sprintf("m%d", j), fmt.Sprintf("x%d", j%17)})
	}
	joinViews, err := cq.ParseViews(`
		v(A,B)  :- r(A,C), s(C,B).
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
	`)
	if err != nil {
		return err
	}
	restricted, err := cq.ParseViews("v(A,B) :- r(A,C), s(C,B).")
	if err != nil {
		return err
	}

	cases := []struct {
		name     string
		strategy engine.Strategy
		views    []*cq.Query
	}{
		// Full coverage: the point lookup rewrites to an equivalent view probe.
		{"point_equivalent", engine.EquivalentFirst, joinViews},
		// Join view only, MiniCon: the plan is a one-member MCR union.
		{"point_minicon", engine.MiniCon, restricted},
	}
	for _, bench := range cases {
		queries := make([]*cq.Query, streamLen)
		args := make([]string, streamLen)
		for i := range queries {
			args[i] = fmt.Sprintf("k%d", i)
			queries[i] = cq.MustParseQuery(fmt.Sprintf("q(Y) :- r(%s,Z), s(Z,Y)", args[i]))
		}
		eng, err := engine.NewFromBase(base, bench.views, engine.Options{Strategy: bench.strategy, KeepComparisons: true})
		if err != nil {
			return err
		}
		// One untimed Answer pass witnesses the template sharing.
		for _, q := range queries {
			if _, err := eng.Answer(q); err != nil {
				return err
			}
		}
		st := eng.Stats()
		res := PreparedBenchResult{
			Name:        bench.name,
			Strategy:    string(bench.strategy),
			Queries:     streamLen,
			Tuples:      eng.Database().TotalTuples(),
			CacheMisses: st.Misses,
			CacheHits:   st.Hits,
		}

		answerNs, _, err := minNs(reps, func(int) error {
			for _, q := range queries {
				if _, err := eng.Answer(q); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.AnswerNsPerQuery = answerNs / streamLen

		pq, err := eng.Prepare(queries[0])
		if err != nil {
			return err
		}
		preparedNs, _, err := minNs(reps, func(int) error {
			for _, a := range args {
				if _, err := pq.Exec(a); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.PreparedNsPerQuery = preparedNs / streamLen

		// Cold: rewriting search + physical compilation + execution per
		// query, over a sample (the search dominates; no need for all
		// 1000). Planning runs on the engine's own serving database.
		vs, err := core.NewViewSet(bench.views...)
		if err != nil {
			return err
		}
		db := eng.Database()
		cat := cost.NewCatalog(db)
		const coldSample = 100
		coldNs, _, err := minNs(2, func(int) error {
			for i := 0; i < coldSample; i++ {
				q := queries[i]
				switch bench.strategy {
				case engine.EquivalentFirst:
					rw := core.NewRewriter(vs).RewriteOne(cq.Canonicalize(q))
					if rw == nil {
						return fmt.Errorf("%s: no rewriting for %s", bench.name, q)
					}
					datalog.Compile(rw.Query, cat).Eval(db)
				case engine.MiniCon:
					u, _, err := minicon.Rewrite(cq.Canonicalize(q), vs, minicon.Options{VerifyCandidates: true, KeepComparisons: true})
					if err != nil {
						return err
					}
					for _, m := range u.Queries {
						datalog.Compile(m, cat).Eval(db)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.ColdNsPerQuery = coldNs / coldSample
		if res.PreparedNsPerQuery > 0 {
			res.SpeedupPreparedVsCold = res.ColdNsPerQuery / res.PreparedNsPerQuery
		}
		if res.AnswerNsPerQuery > 0 {
			res.SpeedupAnswerVsCold = res.ColdNsPerQuery / res.AnswerNsPerQuery
		}
		fmt.Printf("%-18s misses=%d hits=%d cold=%.0fns answer=%.0fns prepared=%.0fns (%.1fx vs cold)\n",
			res.Name, res.CacheMisses, res.CacheHits, res.ColdNsPerQuery,
			res.AnswerNsPerQuery, res.PreparedNsPerQuery, res.SpeedupPreparedVsCold)
		report.Prepared = append(report.Prepared, res)
	}
	return nil
}

// runGovernanceBench measures the cancellation-check overhead of the
// context-aware execution paths and merges the "governance" section into
// the JSON report at path. Each workload alternates the legacy entry point
// and its Ctx variant under a live guard (cancelable context that never
// fires, no budgets) in one process and keeps the best of each side, so
// the ratio isolates the per-row `tick` and the round-barrier polls from
// host noise.
func runGovernanceBench(path string) error {
	var report EvalBenchReport
	if path != "-" {
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &report); err != nil {
				return fmt.Errorf("parse existing %s: %w", path, err)
			}
		}
	}
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	if report.Command == "" {
		report.Command = "aqvbench -governance " + path
	}
	report.Governance = nil

	// ctx is cancelable but never canceled: newGuardState sees ctx.Done()
	// non-nil and arms the guard, so every row pays the real amortized
	// check — the honest serving-path cost of a request with a deadline.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// measure runs legacy and governed back-to-back `rounds` times (the
	// side that goes first alternates per round) and reports the median of
	// the per-round governed/legacy ratios: the two runs of a round share
	// the host's clock speed, cache and GC state, so slow drift — which on
	// this workload swings single runs by ±20% — cancels out of each ratio,
	// and the median discards the rounds where a GC cycle landed on one
	// side. Best-of on each side independently does not have this property:
	// it compares a lucky run of one side against a lucky run of the other,
	// taken under different host states.
	measure := func(res GovernanceBenchResult, rounds int, legacy, governed func() error) error {
		// One sample = two consecutive runs from a freshly collected heap:
		// the forced GC equalizes the allocator state both sides start
		// from, and summing two runs averages over where the in-run GC
		// cycles land.
		time1 := func(f func() error) (float64, error) {
			runtime.GC()
			start := time.Now()
			for i := 0; i < 2; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			d := float64(time.Since(start).Nanoseconds()) / 2
			if d < 1 {
				d = 1
			}
			return d, nil
		}
		var ratios, bases, govs []float64
		for r := 0; r < rounds; r++ {
			var legNs, govNs float64
			var err error
			if r%2 == 0 {
				if legNs, err = time1(legacy); err == nil {
					govNs, err = time1(governed)
				}
			} else {
				if govNs, err = time1(governed); err == nil {
					legNs, err = time1(legacy)
				}
			}
			if err != nil {
				return err
			}
			ratios = append(ratios, govNs/legNs)
			bases = append(bases, legNs)
			govs = append(govs, govNs)
		}
		median := func(xs []float64) float64 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			return s[len(s)/2]
		}
		res.BaselineNs, res.GovernedNs = median(bases), median(govs)
		res.OverheadPct = (median(ratios) - 1) * 100
		fmt.Printf("%-12s tuples=%-8d base=%.2fms governed=%.2fms overhead=%+.2f%%\n",
			res.Name, res.Tuples, res.BaselineNs/1e6, res.GovernedNs/1e6, res.OverheadPct)
		report.Governance = append(report.Governance, res)
		return nil
	}

	// serve_join: the join-heavy serving workload — the guard cost lands on
	// the per-candidate-row tick in the innermost probe loop.
	{
		rng := rand.New(rand.NewSource(91))
		db := storage.NewDatabase()
		for i := 0; i < 100000; i++ {
			db.Insert("p1", storage.Tuple{"w" + fmt.Sprint(rng.Intn(250000)), "x" + fmt.Sprint(rng.Intn(75000))})
		}
		for i := 0; i < 40000; i++ {
			db.Insert("p2", storage.Tuple{"x" + fmt.Sprint(rng.Intn(75000)), "k" + fmt.Sprint(rng.Intn(25000))})
		}
		for i := 0; i < 500000; i++ {
			db.Insert("p3", storage.Tuple{"k" + fmt.Sprint(rng.Intn(25000)), "z" + fmt.Sprint(rng.Intn(1250000))})
		}
		q := cq.MustParseQuery("q(Y,Z) :- p1(W,X), p2(X,Y), p3(Y,Z)")
		db.BuildIndexes()
		plan := datalog.Compile(q, cost.NewCatalog(db))
		workers := runtime.GOMAXPROCS(0)
		res := GovernanceBenchResult{
			Name:    "serve_join",
			Tuples:  db.TotalTuples(),
			Answers: len(plan.EvalParallel(db, workers)),
		}
		if err := measure(res, 13,
			func() error { plan.EvalParallel(db, workers); return nil },
			func() error {
				_, err := plan.EvalParallelCtx(ctx, db, nil, workers, datalog.Limits{})
				return err
			}); err != nil {
			return err
		}
	}

	// tc_chain: the recursive fixpoint workload — the guard cost lands on
	// the per-derivation tick plus one poll per round barrier.
	{
		rng := rand.New(rand.NewSource(93))
		edges := storage.NewDatabase()
		const chain = 400
		for i := 0; i < chain; i++ {
			edges.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
		}
		for i := 0; i < 200; i++ {
			from := rng.Intn(chain)
			edges.Insert("e", storage.Tuple{fmt.Sprint(from), fmt.Sprint(from + 1 + rng.Intn(6))})
		}
		prog := datalog.NewProgram(
			datalog.RuleFromQuery(cq.MustParseQuery("tc(X,Y) :- e(X,Y)")),
			datalog.RuleFromQuery(cq.MustParseQuery("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
		)
		edges.BuildIndexes()
		cp, err := datalog.CompileProgram(prog, cost.NewCatalog(edges))
		if err != nil {
			return err
		}
		workers := runtime.GOMAXPROCS(0)
		res := GovernanceBenchResult{Name: "tc_chain", Tuples: edges.TotalTuples()}
		if err := measure(res, 13,
			func() error {
				_, err := cp.EvalParallel(edges, workers)
				return err
			},
			func() error {
				_, err := cp.EvalCtx(ctx, edges, workers, datalog.Limits{})
				return err
			}); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// minNs times f reps times and returns the fastest run in nanoseconds
// (floored at 1ns so downstream ratios stay finite on coarse clocks) plus
// the index of the rep that achieved it. Each call receives its rep index
// so mutation-heavy work can use disjoint inputs per rep.
func minNs(reps int, f func(rep int) error) (float64, int, error) {
	best, bestRep := -1.0, 0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, 0, err
		}
		if d := float64(time.Since(start).Nanoseconds()); best < 0 || d < best {
			best, bestRep = d, i
		}
	}
	if best < 1 {
		best = 1
	}
	return best, bestRep, nil
}

// runIVMBench measures the live-update path: delta-maintaining the
// materialized extents for one insert batch versus re-materializing every
// extent from the updated base, at delta sizes from a handful of tuples up
// to 1% of the base. The engine's pre-IVM behaviour was the "full" column
// on every update.
func runIVMBench(report *EvalBenchReport) error {
	const reps = 4

	// Conjunctive views over a 60k-tuple chain base.
	rng := rand.New(rand.NewSource(71))
	base := workload.ChainDatabase(rng, 3, true, 20000, 8000)
	views := []*cq.Query{
		cq.MustParseQuery("v1(A,B) :- p1(A,C), p2(C,B)"),
		cq.MustParseQuery("v2(A,B) :- p2(A,C), p3(C,B)"),
		cq.MustParseQuery("v3(A,B) :- p1(A,B)"),
	}
	baseN := base.TotalTuples()
	randomBatch := func(n int) map[string][]storage.Tuple {
		upd := make(map[string][]storage.Tuple)
		for i := 0; i < n; i++ {
			pred := fmt.Sprintf("p%d", 1+rng.Intn(3))
			upd[pred] = append(upd[pred], storage.Tuple{
				fmt.Sprintf("c%d", rng.Intn(8000)), fmt.Sprintf("c%d", rng.Intn(8000)),
			})
		}
		return upd
	}
	for _, frac := range []float64{0.0001, 0.001, 0.01} {
		deltaN := int(float64(baseN) * frac)
		if deltaN < 1 {
			deltaN = 1
		}
		m, err := ivm.New(base, views, ivm.Options{})
		if err != nil {
			return err
		}
		extentN := m.Database().TotalTuples() - baseN
		// Delta: successive disjoint batches against one maintainer (its
		// state drifts by well under 1% across reps).
		batches := make([]map[string][]storage.Tuple, reps)
		for i := range batches {
			batches[i] = randomBatch(deltaN)
		}
		derivedPerRep := make([]int, reps)
		deltaNs, bestRep, err := minNs(reps, func(rep int) error {
			res, err := m.ApplyBatch(batches[rep])
			if err != nil {
				return err
			}
			derivedPerRep[rep] = res.Stats.Derived
			return nil
		})
		if err != nil {
			return err
		}
		// Full: re-materialize every extent over the updated base — what
		// every update cost before the IVM path existed.
		shadow := base.Clone()
		for pred, tuples := range batches[0] {
			for _, t := range tuples {
				if err := shadow.Insert(pred, t); err != nil {
					return err
				}
			}
		}
		fullNs, _, err := minNs(reps, func(int) error {
			_, err := datalog.MaterializeViews(shadow, views)
			return err
		})
		if err != nil {
			return err
		}
		res := IVMBenchResult{
			Name:         fmt.Sprintf("views_chain_%gpct", frac*100),
			BaseTuples:   baseN,
			ExtentTuples: extentN,
			DeltaTuples:  deltaN,
			DeltaDerived: derivedPerRep[bestRep],
			FullNs:       fullNs,
			DeltaNs:      deltaNs,
			Speedup:      fullNs / deltaNs,
		}
		fmt.Printf("%-22s base=%-6d extents=%-6d delta=%-4d full=%.0fns delta=%.0fns (%.1fx)\n",
			res.Name, res.BaseTuples, res.ExtentTuples, res.DeltaTuples, res.FullNs, res.DeltaNs, res.Speedup)
		report.IVM = append(report.IVM, res)
	}

	countTuples := func(m map[string][]storage.Tuple) int {
		n := 0
		for _, ts := range m {
			n += len(ts)
		}
		return n
	}

	// Non-monotone maintenance over the same flat views: delete-heavy and
	// mixed-churn batches through counting maintenance (ApplyUpdate) against
	// re-materializing every extent from the post-batch base — the engine's
	// only option before deletions existed. An untimed priming batch (delete
	// plus re-insert of one tuple) builds the lazy derivation counts so the
	// one-off initialization stays out of the measured delta.
	for _, kind := range []struct {
		name    string
		insFrac float64
	}{
		{"views_chain_delete_heavy", 0},
		{"views_chain_mixed_churn", 0.5},
	} {
		m, err := ivm.New(base, views, ivm.Options{})
		if err != nil {
			return err
		}
		prime := base.Relation("p1").Tuples()[0]
		one := map[string][]storage.Tuple{"p1": {prime}}
		if _, err := m.ApplyUpdate(one, one); err != nil {
			return err
		}
		extentN := m.Database().TotalTuples() - baseN

		const deltaN = 120
		delPer := int(float64(deltaN) * (1 - kind.insFrac))
		insPer := deltaN - delPer
		// Retraction pools: disjoint slices of a shuffled snapshot of the
		// live base, so every rep deletes tuples that are actually present.
		type fact struct {
			pred string
			t    storage.Tuple
		}
		var pool []fact
		for _, pred := range []string{"p1", "p2", "p3"} {
			for _, t := range m.Database().Relation(pred).Tuples() {
				pool = append(pool, fact{pred, t})
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		delBatches := make([]map[string][]storage.Tuple, reps)
		insBatches := make([]map[string][]storage.Tuple, reps)
		for i := range delBatches {
			del := make(map[string][]storage.Tuple)
			for _, f := range pool[i*delPer : (i+1)*delPer] {
				del[f.pred] = append(del[f.pred], f.t)
			}
			delBatches[i] = del
			if insPer > 0 {
				insBatches[i] = randomBatch(insPer)
			}
		}
		derivedPerRep := make([]int, reps)
		retractedPerRep := make([]int, reps)
		deltaNs, bestRep, err := minNs(reps, func(rep int) error {
			res, err := m.ApplyUpdate(insBatches[rep], delBatches[rep])
			if err != nil {
				return err
			}
			derivedPerRep[rep] = countTuples(res.ExtentDelta)
			retractedPerRep[rep] = countTuples(res.ExtentRetracted)
			return nil
		})
		if err != nil {
			return err
		}
		shadow := base.Clone()
		for pred, tuples := range delBatches[0] {
			for _, t := range tuples {
				shadow.Relation(pred).Remove(t)
			}
		}
		for pred, tuples := range insBatches[0] {
			for _, t := range tuples {
				if err := shadow.Insert(pred, t); err != nil {
					return err
				}
			}
		}
		fullNs, _, err := minNs(reps, func(int) error {
			_, err := datalog.MaterializeViews(shadow, views)
			return err
		})
		if err != nil {
			return err
		}
		res := IVMBenchResult{
			Name:           kind.name,
			BaseTuples:     baseN,
			ExtentTuples:   extentN,
			DeltaTuples:    deltaN,
			DeltaDeleted:   delPer,
			DeltaDerived:   derivedPerRep[bestRep],
			DeltaRetracted: retractedPerRep[bestRep],
			FullNs:         fullNs,
			DeltaNs:        deltaNs,
			Speedup:        fullNs / deltaNs,
		}
		fmt.Printf("%-22s base=%-6d extents=%-6d delta=%-4d (-%d) full=%.0fns delta=%.0fns (%.1fx)\n",
			res.Name, res.BaseTuples, res.ExtentTuples, res.DeltaTuples, res.DeltaDeleted, res.FullNs, res.DeltaNs, res.Speedup)
		report.IVM = append(report.IVM, res)
	}

	// Recursive: transitive closure of a long chain, extended edge by edge.
	rng = rand.New(rand.NewSource(73))
	edges := storage.NewDatabase()
	const chain = 300
	for i := 0; i < chain; i++ {
		edges.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	for i := 0; i < 100; i++ {
		from := rng.Intn(chain)
		edges.Insert("e", storage.Tuple{fmt.Sprint(from), fmt.Sprint(from + 1 + rng.Intn(8))})
	}
	prog := datalog.NewProgram(
		datalog.RuleFromQuery(cq.MustParseQuery("tc(X,Y) :- e(X,Y)")),
		datalog.RuleFromQuery(cq.MustParseQuery("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp, err := datalog.CompileProgramIVM(prog, cost.NewCatalog(edges))
	if err != nil {
		return err
	}
	for _, deltaN := range []int{1, 3} {
		maintained, err := cp.Eval(edges)
		if err != nil {
			return err
		}
		maintained.BuildIndexes()
		baseN := edges.TotalTuples()
		extentN := maintained.TotalTuples() - baseN
		batches := make([]map[string][]storage.Tuple, reps)
		for i := range batches {
			upd := make(map[string][]storage.Tuple)
			for j := 0; j < deltaN; j++ {
				from := rng.Intn(chain)
				upd["e"] = append(upd["e"], storage.Tuple{
					fmt.Sprint(from), fmt.Sprint(rng.Intn(chain + 1)),
				})
			}
			batches[i] = upd
		}
		derivedPerRep := make([]int, reps)
		deltaNs, bestRep, err := minNs(reps, func(rep int) error {
			_, _, stats, err := cp.ApplyInserts(maintained, batches[rep], 1)
			derivedPerRep[rep] = stats.Derived
			return err
		})
		if err != nil {
			return err
		}
		shadow := edges.Clone()
		for _, t := range batches[0]["e"] {
			shadow.Insert("e", t)
		}
		fullNs, _, err := minNs(reps, func(int) error {
			_, err := cp.Eval(shadow)
			return err
		})
		if err != nil {
			return err
		}
		res := IVMBenchResult{
			Name:         fmt.Sprintf("tc_chain_%dedge", deltaN),
			BaseTuples:   baseN,
			ExtentTuples: extentN,
			DeltaTuples:  deltaN,
			DeltaDerived: derivedPerRep[bestRep],
			FullNs:       fullNs,
			DeltaNs:      deltaNs,
			Speedup:      fullNs / deltaNs,
		}
		fmt.Printf("%-22s base=%-6d extents=%-6d delta=%-4d full=%.0fns delta=%.0fns (%.1fx)\n",
			res.Name, res.BaseTuples, res.ExtentTuples, res.DeltaTuples, res.FullNs, res.DeltaNs, res.Speedup)
		report.IVM = append(report.IVM, res)
	}

	// DRed: retract edges from the maintained transitive closure —
	// over-delete plus re-derive against re-running the fixpoint on the
	// shrunken base. Deltas stay small because a single chain edge can
	// support a quadratic slab of closure tuples; that blast radius is the
	// point of measuring the recursive deletion path separately.
	{
		st := cp.NewMaintState(edges)
		maintained, err := cp.Eval(edges)
		if err != nil {
			return err
		}
		maintained.BuildIndexes()
		baseN := edges.TotalTuples()
		extentN := maintained.TotalTuples() - baseN
		pool := append([]storage.Tuple(nil), maintained.Relation("e").Tuples()...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		const delN = 2
		batches := make([]map[string][]storage.Tuple, reps)
		for i := range batches {
			batches[i] = map[string][]storage.Tuple{"e": pool[i*delN : (i+1)*delN]}
		}
		derivedPerRep := make([]int, reps)
		retractedPerRep := make([]int, reps)
		deltaNs, bestRep, err := minNs(reps, func(rep int) error {
			res, err := cp.ApplyUpdates(maintained, st, nil, batches[rep], 1)
			if err != nil {
				return err
			}
			derivedPerRep[rep] = countTuples(res.Derived)
			retractedPerRep[rep] = countTuples(res.Retracted)
			return nil
		})
		if err != nil {
			return err
		}
		shadow := edges.Clone()
		for _, t := range batches[0]["e"] {
			shadow.Relation("e").Remove(t)
		}
		fullNs, _, err := minNs(reps, func(int) error {
			_, err := cp.Eval(shadow)
			return err
		})
		if err != nil {
			return err
		}
		res := IVMBenchResult{
			Name:           fmt.Sprintf("tc_chain_dred_%dedge", delN),
			BaseTuples:     baseN,
			ExtentTuples:   extentN,
			DeltaTuples:    delN,
			DeltaDeleted:   delN,
			DeltaDerived:   derivedPerRep[bestRep],
			DeltaRetracted: retractedPerRep[bestRep],
			FullNs:         fullNs,
			DeltaNs:        deltaNs,
			Speedup:        fullNs / deltaNs,
		}
		fmt.Printf("%-22s base=%-6d extents=%-6d delta=%-4d (-%d) full=%.0fns delta=%.0fns (%.1fx)\n",
			res.Name, res.BaseTuples, res.ExtentTuples, res.DeltaTuples, res.DeltaDeleted, res.FullNs, res.DeltaNs, res.Speedup)
		report.IVM = append(report.IVM, res)
	}
	return nil
}
