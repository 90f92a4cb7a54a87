package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/storage"
)

// durOpts returns live-engine options rooted at a test data dir. WALNoSync
// keeps the suite fast; the bytes still reach the OS, which is all the
// crash-simulation tests below rely on (they drop the engine, they do not
// kill the process).
func durOpts(dir string) Options {
	return Options{
		LiveUpdates:      true,
		DataDir:          dir,
		WALNoSync:        true,
		SnapshotWALBytes: -1, // no background checkpoints unless a test wants them
	}
}

func mustAnswer(t *testing.T, e *Engine, q *cq.Query) []storage.Tuple {
	t.Helper()
	rows, err := answer(e, q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestDurableRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := update(e, map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := update(e, map[string][]storage.Tuple{"s": {{"n", "z"}}}, map[string][]storage.Tuple{"r": {{"a", "m"}}}); err != nil {
		t.Fatal(err)
	}
	want := mustAnswer(t, e, q)
	st := e.Stats().Durable
	if !st.Enabled || st.LSN != 2 || st.Snapshots != 1 {
		t.Fatalf("pre-close durable stats = %+v, want enabled, lsn 2, one boot snapshot", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// A graceful close checkpoints, so the reopen must come entirely from
	// the snapshot: no WAL batches to replay.
	re, err := NewFromBase(nil, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := mustAnswer(t, re, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("recovered answers %v, want %v", got, want)
	}
	st = re.Stats().Durable
	if st.RecoveredBatches != 0 || st.RecoveredTuples == 0 || st.StaleRebuild || st.ColdStart <= 0 {
		t.Fatalf("recovery stats = %+v, want cold start from snapshot with zero replayed batches", st)
	}
	// Mutations keep working after recovery, and the LSN keeps rising from
	// the snapshot's position.
	if err := update(re, map[string][]storage.Tuple{"r": {{"d", "n"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Durable.LSN; got != 3 {
		t.Fatalf("post-recovery LSN = %d, want 3", got)
	}
}

func TestDurableCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	shadow := base.Clone()
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	batches := []struct {
		ins, del map[string][]storage.Tuple
	}{
		{ins: map[string][]storage.Tuple{"r": {{"c", "m"}, {"c", "n"}}}},
		{del: map[string][]storage.Tuple{"s": {{"n", "y"}}}},
		{ins: map[string][]storage.Tuple{"s": {{"n", "w"}}}, del: map[string][]storage.Tuple{"r": {{"b", "n"}}}},
	}
	for _, b := range batches {
		if err := update(e, b.ins, b.del); err != nil {
			t.Fatal(err)
		}
		for pred, tuples := range b.del {
			for _, tup := range tuples {
				shadow.Remove(pred, tup)
			}
		}
		for pred, tuples := range b.ins {
			for _, tup := range tuples {
				shadow.Insert(pred, tup)
			}
		}
	}
	// Crash: the engine is dropped without Close — no shutdown checkpoint,
	// the batches exist only in the WAL behind the boot snapshot.

	re, err := NewFromBase(nil, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	fresh, err := NewFromBase(shadow, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustAnswer(t, re, q), mustAnswer(t, fresh, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("crash-recovered answers %v, want %v", got, want)
	}
	st := re.Stats().Durable
	if st.RecoveredBatches != len(batches) || st.LSN != uint64(len(batches)) {
		t.Fatalf("recovery stats = %+v, want %d replayed batches", st, len(batches))
	}
}

// TestDurableCrashDifferential is the randomized acceptance test: random
// mixed batches, a simulated crash at a random point (engine dropped, no
// checkpoint), recovery, and a differential check against an engine built
// fresh from the shadow base that folded exactly the acknowledged batches.
func TestDurableCrashDifferential(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(0xD15C))
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		base, views := testBase(t)
		shadow := base.Clone()
		e, err := NewFromBase(base, views, durOpts(dir))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nBatches := 1 + rng.Intn(6)
		for b := 0; b < nBatches; b++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			for i := 0; i < 1+rng.Intn(4); i++ {
				pred, arity := "r", 2
				if rng.Intn(3) == 0 {
					pred = "s"
				}
				tup := storage.Tuple{fmt.Sprintf("a%d", rng.Intn(6)), fmt.Sprintf("m%d", rng.Intn(6))}
				_ = arity
				if rng.Intn(4) == 0 {
					del[pred] = append(del[pred], tup)
				} else {
					ins[pred] = append(ins[pred], tup)
				}
			}
			if err := update(e, ins, del); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, b, err)
			}
			// Acknowledged: the recovered engine must reflect it.
			for pred, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(pred, tup)
				}
			}
			for pred, tuples := range ins {
				for _, tup := range tuples {
					shadow.Insert(pred, tup)
				}
			}
		}
		// Crash (drop without Close), recover, compare.
		re, err := NewFromBase(nil, views, durOpts(dir))
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		fresh, err := NewFromBase(shadow, views, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, want := mustAnswer(t, re, q), mustAnswer(t, fresh, q)
		if !storage.TuplesEqual(got, want) {
			t.Fatalf("trial %d (%d batches): recovered engine diverges\n  got:  %v\n  want: %v", trial, nBatches, got, want)
		}
		if !re.Database().Equal(fresh.Database()) {
			t.Fatalf("trial %d: recovered database diverges:\n%s\nvs\n%s", trial, re.Database().Summary(), fresh.Database().Summary())
		}
		re.Close()
	}
}

func TestDurableStaleFingerprintRebuilds(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := update(e, map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a different view set: the snapshot's extents are stale,
	// the base facts (including the WAL-covered insert) are not.
	newViews, err := cq.ParseViews(`
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	var logbuf strings.Builder
	opt := durOpts(dir)
	opt.Logf = func(format string, args ...any) { fmt.Fprintf(&logbuf, format+"\n", args...) }
	re, err := NewFromBase(nil, newViews, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats().Durable
	if !st.StaleRebuild {
		t.Fatalf("durable stats = %+v, want StaleRebuild", st)
	}
	if !strings.Contains(logbuf.String(), "different view definitions") {
		t.Fatalf("no stale-snapshot warning logged; log:\n%s", logbuf.String())
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Y)")
	got := mustAnswer(t, re, q)
	found := false
	for _, row := range got {
		if row[0] == "c" && row[1] == "m" {
			found = true
		}
	}
	if !found {
		t.Fatalf("WAL-covered base fact lost across stale rebuild: %v", got)
	}
}

func TestDurableFailStop(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := mustAnswer(t, e, cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))

	// Sabotage the log: closing the store underneath the engine makes every
	// later append fail, which must surface as ErrDurability and leave the
	// read path serving the last published state.
	if err := e.dur.store.Close(); err != nil {
		t.Fatal(err)
	}
	uerr := update(e, map[string][]storage.Tuple{"r": {{"zz", "zz"}}}, nil)
	if !errors.Is(uerr, ErrDurability) {
		t.Fatalf("update after WAL failure returned %v, want ErrDurability", uerr)
	}
	if code := ErrorCode(uerr); code != CodeDurability {
		t.Fatalf("ErrorCode = %q, want %q", code, CodeDurability)
	}
	got := mustAnswer(t, e, cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("reads changed after failed update: %v vs %v", got, want)
	}
}

func TestDurableCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	opt := durOpts(dir)
	opt.SnapshotWALBytes = 1 // every batch crosses the threshold
	e, err := NewFromBase(base, views, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := update(e, map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats().Durable
		if st.Snapshots >= 2 && st.SnapshotLSN == st.LSN {
			break // boot snapshot + threshold-triggered one
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDurableExplicitCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := update(e, map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().Durable
	if st.Snapshots != 2 || st.SnapshotLSN != st.LSN {
		t.Fatalf("after Checkpoint: %+v, want snapshot at LSN %d", st, st.LSN)
	}
}

// TestDurableFrozenStrategies covers DataDir without LiveUpdates for every
// strategy: the engine snapshots its materialized state at first boot and
// serves identical answers on the second.
func TestDurableFrozenStrategies(t *testing.T) {
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, strat := range Strategies() {
		dir := t.TempDir()
		base, views := testBase(t)
		opt := Options{Strategy: strat, DataDir: dir, WALNoSync: true}
		e, err := NewFromBase(base, views, opt)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		want := mustAnswer(t, e, q)
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", strat, err)
		}
		re, err := NewFromBase(nil, views, opt)
		if err != nil {
			t.Fatalf("%s: reopen: %v", strat, err)
		}
		if got := mustAnswer(t, re, q); !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: recovered answers %v, want %v", strat, got, want)
		}
		st := re.Stats().Durable
		if st.RecoveredTuples == 0 {
			t.Fatalf("%s: second boot did not load the snapshot: %+v", strat, st)
		}
		re.Close()
	}
}

func TestDurableCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A memory-only engine's Close is a no-op.
	mem, err := NewFromBase(testBaseDB(t), views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("memory-only Close: %v", err)
	}
}

func testBaseDB(t *testing.T) *storage.Database {
	t.Helper()
	db, _ := testBase(t)
	return db
}

// TestDurableColdStartCoversBoot: ColdStart times the whole boot of a
// durable live engine — recovery or materialization, both serving sides
// and the boot checkpoint — so over a ~40k-tuple base it accounts for at
// least three quarters of the externally timed NewFromBase, on a fresh
// boot and on a restart from the snapshot.
func TestDurableColdStartCoversBoot(t *testing.T) {
	base, views := pointBase(t, 40000)
	dir := t.TempDir()
	for _, boot := range []string{"fresh", "restart"} {
		start := time.Now()
		e, err := NewFromBase(base, views, durOpts(dir))
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		cold := e.Stats().Durable.ColdStart
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if cold*4 < wall*3 {
			t.Fatalf("%s boot: ColdStart %v, NewFromBase took %v: under three quarters", boot, cold, wall)
		}
	}
}
