package main

// Crash torture: a real daemon process is SIGKILLed mid-batch-stream and
// restarted from its -data directory. The restarted daemon must serve
// exactly the acknowledged batches — except possibly the single batch that
// was in flight when the kill landed, which may be present or absent but
// only atomically so.
//
// The daemon runs as a child process of the test binary itself
// (re-exec via -test.run=TestHelperDaemonProcess), so kill -9 hits a real
// OS process with a real WAL fd, not an in-process goroutine.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/storage"
)

// TestHelperDaemonProcess is not a test: it is the child-process entry
// point. The parent re-execs the test binary with AQVD_HELPER_DAEMON set
// and the daemon args in the environment.
func TestHelperDaemonProcess(t *testing.T) {
	if os.Getenv("AQVD_HELPER_DAEMON") != "1" {
		t.Skip("helper process entry point")
	}
	args := strings.Split(os.Getenv("AQVD_HELPER_ARGS"), "\x1f")
	addrFile := os.Getenv("AQVD_HELPER_ADDRFILE")
	ch := make(chan net.Addr, 1)
	notifyAddr = ch
	go func() {
		a := <-ch
		tmp := addrFile + ".tmp"
		os.WriteFile(tmp, []byte(a.String()), 0o644)
		os.Rename(tmp, addrFile)
	}()
	if err := run(context.Background(), args, io.Discard); err != nil {
		fmt.Fprintln(os.Stderr, "helper daemon:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnDaemon starts the daemon child and waits for its listen address.
func spawnDaemon(t *testing.T, addrFile string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemonProcess$")
	cmd.Env = append(os.Environ(),
		"AQVD_HELPER_DAEMON=1",
		"AQVD_HELPER_ARGS="+strings.Join(append([]string{"-listen", "127.0.0.1:0"}, args...), "\x1f"),
		"AQVD_HELPER_ADDRFILE="+addrFile,
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, "http://" + string(data)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon child never reported its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonKill9CrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs real processes")
	}
	views, base := inlineDir(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addrFile := filepath.Join(t.TempDir(), "addr")
	daemonArgs := []string{"-views", views, "-base", base, "-live", "-data", dataDir}

	cmd, url := spawnDaemon(t, addrFile, daemonArgs...)

	// Stream distinct-tuple batches as fast as the daemon acks them. Each
	// batch is recorded before the request and promoted to acked on 200, so
	// at kill time exactly the last entry may be in limbo.
	type entry struct {
		tuples [][]string
		acked  bool
	}
	var sent []entry
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := [][]string{
				{fmt.Sprintf("crash%d", i), fmt.Sprintf("m%d", i%4)},
				{fmt.Sprintf("crash%d_b", i), fmt.Sprintf("m%d", (i+1)%4)},
			}
			sent = append(sent, entry{tuples: batch})
			body, _ := json.Marshal(map[string]any{"updates": map[string][][]string{"r": batch}})
			resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				return // the kill landed mid-request
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			sent[len(sent)-1].acked = true
		}
	}()

	// Let a stream of batches through, then kill -9 mid-flight.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	cmd.Wait()
	acked := 0
	for _, e := range sent {
		if e.acked {
			acked++
		}
	}
	if acked == 0 {
		t.Fatalf("no batch was acknowledged before the kill (%d sent)", len(sent))
	}

	// Restart from the same -data directory and read the full r relation
	// through the vr view.
	re, url2 := spawnDaemon(t, addrFile, daemonArgs...)
	defer func() {
		re.Process.Signal(os.Interrupt)
		re.Wait()
	}()
	body, _ := json.Marshal(map[string]any{"query": "q(X,Y) :- r(X,Y)."})
	resp, err := http.Post(url2+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart query: %d %s", resp.StatusCode, raw)
	}
	var ans struct {
		Answers [][]string `json:"answers"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(ans.Answers))
	for _, row := range ans.Answers {
		got[strings.Join(row, "\x1f")] = true
	}

	// Differential check against a shadow engine fed exactly the
	// acknowledged batches — the daemon's answers must match it, modulo the
	// at-most-one unacked batch, which must be atomically present or absent.
	shadow := shadowEngine(t, base, views)
	limboPresent, limboAbsent := 0, 0
	for _, e := range sent {
		key0 := strings.Join(e.tuples[0], "\x1f")
		key1 := strings.Join(e.tuples[1], "\x1f")
		switch {
		case e.acked:
			if !got[key0] || !got[key1] {
				t.Fatalf("acknowledged batch %v lost across kill -9", e.tuples)
			}
			ups := map[string][]storage.Tuple{"r": {e.tuples[0], e.tuples[1]}}
			if err := shadow.ApplyUpdateBudget(context.Background(), ups, nil, engine.Budget{}); err != nil {
				t.Fatal(err)
			}
		case got[key0] != got[key1]:
			t.Fatalf("unacked batch %v recovered non-atomically", e.tuples)
		case got[key0]:
			limboPresent++
			ups := map[string][]storage.Tuple{"r": {e.tuples[0], e.tuples[1]}}
			if err := shadow.ApplyUpdateBudget(context.Background(), ups, nil, engine.Budget{}); err != nil {
				t.Fatal(err)
			}
		default:
			limboAbsent++
		}
	}
	if limboPresent+limboAbsent > 1 {
		t.Fatalf("%d batches in limbo, want at most the single in-flight one", limboPresent+limboAbsent)
	}
	want, err := shadow.AnswerBudget(context.Background(), cq.MustParseQuery("q(X,Y) :- r(X,Y)"), engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("recovered daemon serves %d r-tuples, shadow engine has %d", len(got), len(want))
	}
	for _, row := range want {
		if !got[strings.Join([]string(row), "\x1f")] {
			t.Fatalf("shadow tuple %v missing from recovered daemon", row)
		}
	}
	t.Logf("kill -9 recovery: %d acked batches preserved, in-flight batch %s",
		acked, map[bool]string{true: "committed", false: "absent"}[limboPresent == 1])
}

// shadowEngine builds an in-process live engine from the same views and
// base facts the daemon booted with.
func shadowEngine(t *testing.T, basePath, viewsPath string) *engine.Engine {
	t.Helper()
	viewsSrc, err := os.ReadFile(viewsPath)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := cq.ParseViews(string(viewsSrc))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(basePath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.ReadDatabase(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewFromBase(db, vs, engine.Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}
