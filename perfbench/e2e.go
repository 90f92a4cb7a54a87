package main

// The untraced run: set-up, the timed closed-loop phase, peak memory, and
// restart, all against aqvd child processes.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// Run shape. The timed phase is split into segments, each on a freshly
// booted daemon with its own warm-up; a run reports the median of the
// segments' figures, so neither one slow daemon process nor one burst of
// interference from outside the benchmark decides it. Set-up and restart
// are each measured at least setupRepeats and restartRepeats times per
// run, and more until bootBudget has passed (a daemon that boots in
// milliseconds gets enough boots for a steady median), at most maxBoots
// times; each is reported as a median.
const (
	segments       = 3
	setupRepeats   = 3
	restartRepeats = 5
	bootBudget     = 3 * time.Second
	maxBoots       = 31
	warmup         = time.Second
)

// moreBoots reports whether another boot is due after n boots taking
// total.
func moreBoots(n, least int, total, budget time.Duration) bool {
	return n < least || (total < budget && n < maxBoots)
}

// endToEnd measures the workload's end-to-end metrics.
func endToEnd(ctx context.Context, s *spec, o options, dir string) (*outcome, error) {
	// The segments' boots count as set-up samples too.
	h, err := bootN(s, o, dir, setupRepeats-segments+1, bootBudget)
	if err != nil {
		return nil, err
	}
	defer h.close()
	out := &outcome{correct: true, samples: map[string]int{}}
	batches := s.batches
	defer func() { s.batches = batches }()
	var all [2]*classStats
	var p50s [2][]float64
	var ops []float64
	var rss int64
	cpu0 := readCPUStat()
	for seg := 0; seg < segments; seg++ {
		if seg > 0 {
			if err := h.boot(s); err != nil {
				return nil, err
			}
		}
		if batches != nil {
			// Every segment's daemon starts from the base facts and takes
			// the same prefix of the batch sequence.
			s.batches = batches[:len(batches)/segments]
		}
		stats, elapsed, err := h.drive(ctx, s, o, time.Duration(o.seconds)*time.Second/segments)
		if err != nil {
			return nil, err
		}
		r, err := h.d.peakRSS()
		if err != nil {
			return nil, err
		}
		rss = max(rss, r)
		done := 0
		for i, cs := range stats {
			done += len(cs.lats)
			p50s[i] = append(p50s[i], ms(quantile(append([]time.Duration(nil), cs.lats...), 0.5)))
			if all[i] == nil {
				all[i] = &classStats{class: cs.class}
			}
			all[i].lats = append(all[i].lats, cs.lats...)
			all[i].attempted += cs.attempted
			all[i].failed += cs.failed
			all[i].errs = append(all[i].errs, cs.errs...)
		}
		ops = append(ops, float64(done)/elapsed.Seconds())
	}
	out.notes = append(out.notes, fmt.Sprintf("host: %.1f%% of CPU time stolen by the hypervisor during the timed phase", readCPUStat().stealPct(cpu0)))
	restarts, err := h.restart(ctx, s, out)
	if err != nil {
		return nil, err
	}

	for _, cs := range all {
		out.attempted += cs.attempted
		out.failed += cs.failed
		out.samples[cs.class] = len(cs.lats)
		for _, e := range cs.errs {
			out.notes = append(out.notes, "failure: "+e)
		}
	}
	out.correct = out.correct && out.failed == 0
	out.metrics = append(out.metrics,
		metric{"setup_s", median(h.setups), "s"},
		metric{"restart_s", median(restarts), "s"},
		metric{"rss_bytes_per_tuple", float64(rss) / float64(s.stored), "B"},
		metric{"ops_per_s", median(ops), "1/s"},
	)
	for i, role := range []string{"point", "load"} {
		_, p99, err := percentiles(all[i])
		if err != nil {
			return nil, err
		}
		// The p99s are reported but carry no bound: in churn both swing
		// between runs by more than any bound allows (see README.md).
		out.metrics = append(out.metrics, metric{role + "_p50_ms", median(p50s[i]), "ms"})
		out.extra = append(out.extra, metric{role + "_p99_ms", p99, "ms"})
	}
	out.notes = append(out.notes,
		fmt.Sprintf("load class: %s; stored tuples %d; peak RSS %d B", s.class[1], s.stored, rss),
		fmt.Sprintf("per segment: ops_per_s %v; point_p50_ms %v; load_p50_ms %v", ops, p50s[0], p50s[1]),
		fmt.Sprintf("setup_s samples %v; restart_s samples %v", h.setups, restarts))
	return out, nil
}

// maxWindows bounds the windows a p99 is taken over: a run's p99 is the
// median of the p99s of up to maxWindows consecutive windows of its
// samples, each large enough for minBeyondP99 samples beyond its p99.
const maxWindows = 5

// percentiles returns a class's p50 and p99 in milliseconds, failing when
// there are too few samples for even one window's p99.
func percentiles(cs *classStats) (float64, float64, error) {
	per := 100 * minBeyondP99 // samples a window needs for its p99
	k := min(maxWindows, len(cs.lats)/per)
	if k%2 == 0 {
		k-- // an odd count has a middle window
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("class %s: %d samples, need %d for a p99 with %d beyond it", cs.class, len(cs.lats), per, minBeyondP99)
	}
	var p50s, p99s []float64
	for w := 0; w < k; w++ {
		win := append([]time.Duration(nil), cs.lats[w*len(cs.lats)/k:(w+1)*len(cs.lats)/k]...)
		p50 := quantile(win, 0.50)
		p99 := quantile(win, 0.99)
		p50s, p99s = append(p50s, ms(p50)), append(p99s, ms(p99))
	}
	return median(p50s), median(p99s), nil
}

// harness is the daemon of a run with the inputs it boots from.
type harness struct {
	o       options
	dir     string
	config  string
	dataDir string // "" for frozen workloads
	d       *daemon
	setups  []float64
	// acked counts the churn batches the daemon acknowledged.
	acked int
}

func (h *harness) args() []string {
	a := []string{"-config", h.config}
	if h.dataDir != "" {
		a = append(a, "-data", h.dataDir)
	}
	return a
}

func (h *harness) close() {
	if h.d != nil {
		h.d.kill()
		h.d = nil
	}
}

// bootN writes the inputs and boots the daemon at least least times, and
// more until budget has passed (see moreBoots); the last boot stays up.
func bootN(s *spec, o options, dir string, least int, budget time.Duration) (*harness, error) {
	h := &harness{o: o, dir: dir, config: filepath.Join(dir, "config")}
	if err := writeNamespace(s, h.config); err != nil {
		return nil, err
	}
	var total time.Duration
	for i := 0; moreBoots(i, least, total, budget); i++ {
		if err := h.boot(s); err != nil {
			return nil, err
		}
		total += time.Duration(h.setups[len(h.setups)-1] * float64(time.Second))
	}
	return h, nil
}

// boot replaces the running daemon with a fresh one, from an empty data
// directory, and records its set-up time.
func (h *harness) boot(s *spec) error {
	h.close()
	if s.durable {
		h.dataDir = filepath.Join(h.dir, fmt.Sprintf("data-%d", len(h.setups)))
		if err := os.RemoveAll(h.dataDir); err != nil {
			return err
		}
	}
	d, t, err := spawn(h.o.aqvd, h.args(), filepath.Join(h.dir, "aqvd.log"))
	if err != nil {
		return err
	}
	h.d = d
	h.setups = append(h.setups, t.Seconds())
	return nil
}

// drive prepares the connections' templates, warms up, and runs a timed
// phase of length d.
func (h *harness) drive(ctx context.Context, s *spec, o options, d time.Duration) ([2]*classStats, time.Duration, error) {
	var clients [2]*client
	var rngs [2]*rand.Rand
	for i := range clients {
		clients[i] = newClient(h.d.url)
		defer clients[i].close()
		rngs[i] = rand.New(rand.NewSource(o.seed*7919 + int64(i)))
		if s.prepare[i] != "" {
			if err := clients[i].prepare(ctx, s.prepare[i]); err != nil {
				return [2]*classStats{}, 0, err
			}
		}
	}
	clock := &batchClock{}
	var offsets [2]int
	// Warm-up sends no batches: they would consume the fixed sequence
	// whose length the restart depends on.
	warm, _ := loadPhase(ctx, s, clients, rngs, &offsets, clock, warmup, true)
	stats, elapsed := loadPhase(ctx, s, clients, rngs, &offsets, clock, d, false)
	for i := range stats {
		// Warm-up answers are checked too; a wrong one fails the run.
		stats[i].failed += warm[i].failed
		stats[i].attempted += warm[i].failed
		stats[i].errs = append(stats[i].errs, warm[i].errs...)
	}
	h.acked = int(clock.acked.Load())
	return stats, elapsed, nil
}

// restart kills the daemon with SIGKILL and boots it again, restartRepeats
// times, returning each kill-to-healthy time in seconds. A durable daemon
// recovers from its data directory: before the first kill the benchmark
// waits for background checkpoints to settle, so every restart replays the
// same log; after it, the view must hold exactly the acknowledged batches
// and the recovery must have replayed exactly the batches after the
// recovered snapshot. A frozen daemon rebuilds from its input files. Every
// restarted daemon must answer sample point requests correctly.
//
// SIGKILL ends the process but keeps the kernel's page cache, so this
// covers a process crash, not a power loss; the fsync guarantee is tested
// by the daemon's own crash and fault-injection tests.
func (h *harness) restart(ctx context.Context, s *spec, out *outcome) ([]float64, error) {
	if s.durable {
		if err := h.settle(ctx); err != nil {
			return nil, err
		}
		if err := h.checkView(ctx, s, out, "before restart"); err != nil {
			return nil, err
		}
	}
	var times []float64
	var total time.Duration
	for i := 0; moreBoots(i, restartRepeats, total, bootBudget); i++ {
		start := time.Now()
		h.close()
		d, _, err := spawn(h.o.aqvd, h.args(), filepath.Join(h.dir, "aqvd.log"))
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		h.d = d
		times = append(times, time.Since(start).Seconds())
		total += time.Since(start)
		if i > 0 {
			continue
		}
		if err := h.checkPoints(ctx, s, out); err != nil {
			return nil, err
		}
		if !s.durable {
			continue
		}
		if err := h.checkView(ctx, s, out, "after restart"); err != nil {
			return nil, err
		}
		st, err := h.d.stats(ctx)
		if err != nil {
			return nil, err
		}
		ds := st.Engine.Durable
		if ds.LSN != uint64(h.acked) || uint64(ds.RecoveredBatches) != ds.LSN-ds.SnapshotLSN {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("failure: recovery at LSN %d replayed %d batches over a snapshot at LSN %d; %d batches were acknowledged",
				ds.LSN, ds.RecoveredBatches, ds.SnapshotLSN, h.acked))
		}
		out.notes = append(out.notes, fmt.Sprintf("restart replayed %d of %d acknowledged batches (snapshot at LSN %d)", ds.RecoveredBatches, h.acked, ds.SnapshotLSN))
	}
	return times, nil
}

// settle waits until no background checkpoint is due: the log is below the
// checkpoint threshold again.
func (h *harness) settle(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := h.d.stats(ctx)
		if err != nil {
			return err
		}
		if st.Engine.Durable.WALBytes < churnSnapshotWAL {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("checkpoint did not finish: WAL at %d bytes", st.Engine.Durable.WALBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkView compares the whole maintained view with the oracle's state
// after the acknowledged batches.
func (h *harness) checkView(ctx context.Context, s *spec, out *outcome, when string) error {
	c := newClient(h.d.url)
	defer c.close()
	r := &request{class: classQuery, text: s.viewQuery, want: s.viewAt(h.acked)}
	cs := &classStats{class: "view"}
	runOne(ctx, s, c, r, cs, &batchClock{})
	out.attempted += cs.attempted
	out.failed += cs.failed
	for _, e := range cs.errs {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("failure: view %s: %s", when, e))
	}
	return nil
}

// checkPoints sends sample point execs on a fresh connection.
func (h *harness) checkPoints(ctx context.Context, s *spec, out *outcome) error {
	c := newClient(h.d.url)
	defer c.close()
	if err := c.prepare(ctx, s.prepare[0]); err != nil {
		return err
	}
	clock := &batchClock{}
	clock.acked.Store(int64(h.acked))
	clock.sent.Store(int64(h.acked))
	rng := rand.New(rand.NewSource(h.o.seed))
	cs := &classStats{class: "restart"}
	for i := 0; i < 16; i++ {
		runOne(ctx, s, c, s.next[0](rng, i), cs, clock)
	}
	out.attempted += cs.attempted
	out.failed += cs.failed
	for _, e := range cs.errs {
		out.correct = false
		out.notes = append(out.notes, "failure: after restart: "+e)
	}
	return nil
}
