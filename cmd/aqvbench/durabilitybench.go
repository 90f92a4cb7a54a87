package main

// Durability benchmark: what the snapshot + WAL subsystem buys at boot.
// For each scale it measures (a) the cost of writing a checkpoint, (b) the
// cost of a cold start from that checkpoint — segment decode, index build,
// serving-side clones — against full re-materialization of the same state
// from base facts, and (c) WAL replay throughput when the engine died
// without a shutdown checkpoint. Every engine is closed after its
// measurement and every timed build starts from a collected heap.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/storage"
)

// DurabilityBenchResult is one scale's measurements.
type DurabilityBenchResult struct {
	Name string `json:"name"`
	// BaseTuples is the base-fact count of the recovered state (the base
	// plus the WAL batches' inserts); ExtentTuples the materialized view
	// tuples the snapshot carries on top of it.
	BaseTuples   int `json:"base_tuples"`
	ExtentTuples int `json:"extent_tuples"`
	// SnapshotWriteNs is the cost of one checkpoint of the full state;
	// SnapshotBytes its on-disk size.
	SnapshotWriteNs float64 `json:"snapshot_write_ns"`
	SnapshotBytes   int64   `json:"snapshot_bytes"`
	// ColdStartNs boots a serving engine from the snapshot alone (no WAL);
	// RematerializeNs builds the identical engine from base facts, paying
	// the view-materialization fixpoint. SpeedupVsRematerialize is their
	// ratio — the dividend durability pays at every restart.
	ColdStartNs            float64 `json:"cold_start_ns"`
	RematerializeNs        float64 `json:"rematerialize_ns"`
	SpeedupVsRematerialize float64 `json:"speedup_vs_rematerialize"`
	// WALReplayBatches batches were recovered through the maintainer in
	// WALReplayNs when the engine restarted after dying checkpoint-less;
	// WALReplayBatchesPerSec is the recovery throughput, and
	// ColdStartReplayNs the total boot time of that crash restart
	// (snapshot load + replay).
	WALReplayBatches       int     `json:"wal_replay_batches"`
	WALReplayNs            float64 `json:"wal_replay_ns"`
	WALReplayBatchesPerSec float64 `json:"wal_replay_batches_per_sec"`
	ColdStartReplayNs      float64 `json:"cold_start_replay_ns"`
}

// durabilityWorkload builds the serving-shaped base: a fan-in aggregation
// join — small head domains, moderate join-key domain — so each extent
// tuple has many derivations (n/cdom per join key). That is the state
// worth persisting: materializing it walks every derivation, loading it
// from a snapshot pays one decode per distinct tuple. Tuples are distinct
// by construction (injective index→pair enumeration; requires
// hdom*cdom >= scale/2), so the base holds exactly `scale` facts.
func durabilityWorkload(scale, hdom, cdom int) (*storage.Database, []*cq.Query) {
	db := storage.NewDatabase()
	n := scale / 2
	for i := 0; i < n; i++ {
		db.Insert("p1", storage.Tuple{"a" + fmt.Sprint(i%hdom), "c" + fmt.Sprint(i/hdom)})
		db.Insert("p2", storage.Tuple{"c" + fmt.Sprint(i%cdom), "b" + fmt.Sprint(i/cdom)})
	}
	views := []*cq.Query{
		cq.MustParseQuery("v1(A,B) :- p1(A,C), p2(C,B)"),
	}
	return db, views
}

func runDurabilityBench(report *EvalBenchReport) error {
	const reps = 3
	for _, scale := range []struct {
		name       string
		base       int
		hdom, cdom int
	}{
		{"serve_60k", 60000, 150, 250},
		{"serve_400k", 400000, 400, 5000},
	} {
		res, err := durabilityScale(scale.name, scale.base, scale.hdom, scale.cdom, reps)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s base=%-7d extents=%-7d snap=%.0fms/%.1fMB cold=%.0fms remat=%.0fms (%.1fx) replay=%.0f batches/s\n",
			res.Name, res.BaseTuples, res.ExtentTuples,
			res.SnapshotWriteNs/1e6, float64(res.SnapshotBytes)/(1<<20),
			res.ColdStartNs/1e6, res.RematerializeNs/1e6, res.SpeedupVsRematerialize,
			res.WALReplayBatchesPerSec)
		report.Durability = append(report.Durability, res)
	}
	return nil
}

// durabilityScale measures one scale. Every engine it builds is closed,
// and every timed boot starts after a runtime.GC, so no measurement pays
// for the heap an earlier one left behind.
func durabilityScale(name string, scale, hdom, cdom, reps int) (DurabilityBenchResult, error) {
	res := DurabilityBenchResult{Name: name}
	rng := rand.New(rand.NewSource(101))
	base, views := durabilityWorkload(scale, hdom, cdom)
	dir, err := os.MkdirTemp("", "aqvbench-durable")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	durOpt := engine.Options{
		LiveUpdates:      true,
		DataDir:          dir,
		WALNoSync:        true,
		SnapshotWALBytes: -1, // checkpoints only where the harness asks
	}

	// Fresh durable boot: materializes the views once and writes the boot
	// checkpoint.
	e, err := engine.NewFromBase(base, views, durOpt)
	if err != nil {
		return res, err
	}

	// WAL: stream update batches, then die without a checkpoint.
	const replayBatches = 100
	const batchTuples = 20
	full := base.Clone()
	for b := 0; b < replayBatches; b++ {
		ins := make([]storage.Tuple, batchTuples)
		for i := range ins {
			// Fresh head values: every tuple is novel, so each batch has
			// effect and is logged (a no-op batch writes no WAL record).
			ins[i] = storage.Tuple{"n" + fmt.Sprint(b*batchTuples+i), "c" + fmt.Sprint(rng.Intn(cdom))}
			if err := full.Insert("p1", ins[i]); err != nil {
				return res, err
			}
		}
		if err := e.ApplyUpdateBudget(context.Background(), map[string][]storage.Tuple{"p1": ins}, nil, engine.Budget{}); err != nil {
			return res, err
		}
	}
	// The state every boot below recovers: base facts plus the batches'
	// facts, and the extents derived from them.
	res.BaseTuples = full.TotalTuples()
	res.ExtentTuples = e.Database().TotalTuples() - res.BaseTuples

	// Crash: the directory as it stands now — snapshot plus an
	// uncheckpointed WAL — is what a killed process leaves behind. Keep a
	// copy of it, then close the engine (its shutdown checkpoint lands in
	// the original directory, which the crash copy does not see).
	crash, err := os.MkdirTemp("", "aqvbench-crash")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(crash)
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		return res, err
	}
	if err := e.Close(); err != nil {
		return res, err
	}
	e = nil

	// Cold start + WAL replay, best of reps, each from a fresh copy of the
	// crash image.
	var replayStats engine.DurableStats
	res.ColdStartReplayNs, err = bootBest(reps, crash, views, durOpt, func(re *engine.Engine) error {
		replayStats = re.Stats().Durable
		if replayStats.RecoveredBatches != replayBatches {
			return fmt.Errorf("%s: replay recovered %d batches, want %d", name, replayStats.RecoveredBatches, replayBatches)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.WALReplayBatches = replayStats.RecoveredBatches
	res.WALReplayNs = float64(replayStats.ReplayTime.Nanoseconds())
	if replayStats.ReplayTime > 0 {
		res.WALReplayBatchesPerSec = float64(replayBatches) / replayStats.ReplayTime.Seconds()
	}

	// Checkpoint the recovered state (the closed engine's shutdown
	// checkpoint left it in dir): snapshot write cost and size.
	re, err := engine.NewFromBase(nil, views, durOpt)
	if err != nil {
		return res, err
	}
	ckStart := time.Now()
	if err := re.Checkpoint(); err != nil {
		return res, err
	}
	res.SnapshotWriteNs = float64(time.Since(ckStart).Nanoseconds())
	res.SnapshotBytes = re.Stats().Durable.SnapshotBytes
	if err := re.Close(); err != nil {
		return res, err
	}
	re = nil

	// Pure cold start from the snapshot (no WAL) vs re-materializing the
	// identical state from base facts.
	res.ColdStartNs, err = bootBest(reps, dir, views, durOpt, func(ce *engine.Engine) error {
		if st := ce.Stats().Durable; st.RecoveredBatches != 0 || st.StaleRebuild {
			return fmt.Errorf("%s: cold start not from snapshot alone: %+v", name, st)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for i := 0; i < reps; i++ {
		me, d, err := timedBuild(func() (*engine.Engine, error) {
			return engine.NewFromBase(full, views, engine.Options{LiveUpdates: true})
		})
		if err != nil {
			return res, err
		}
		me.Close()
		if i == 0 || d < res.RematerializeNs {
			res.RematerializeNs = d
		}
	}
	res.SpeedupVsRematerialize = res.RematerializeNs / res.ColdStartNs
	return res, nil
}

// bootBest times reps durable boots, each from a fresh copy of the data
// directory src (a boot that replays WAL batches checkpoints them on
// Close, so no copy is booted twice), and returns the fastest. check
// inspects each booted engine before it is closed.
func bootBest(reps int, src string, views []*cq.Query, opt engine.Options, check func(*engine.Engine) error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp("", "aqvbench-boot")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			return 0, err
		}
		opt.DataDir = dir
		e, d, err := timedBuild(func() (*engine.Engine, error) { return engine.NewFromBase(nil, views, opt) })
		if err != nil {
			return 0, err
		}
		err = check(e)
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// timedBuild collects garbage, then times one engine build, so no build
// pays for the heap an earlier measurement left behind.
func timedBuild(build func() (*engine.Engine, error)) (*engine.Engine, float64, error) {
	runtime.GC()
	start := time.Now()
	e, err := build()
	return e, float64(time.Since(start).Nanoseconds()), err
}
