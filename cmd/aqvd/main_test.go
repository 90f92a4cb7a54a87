package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

const testViews = `
	v(A,B)  :- r(A,C), s(C,B).
	vr(A,B) :- r(A,B).
`

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// inlineDir writes a views.dl + base.dl pair into a temp dir.
func inlineDir(t *testing.T) (views, base string) {
	t.Helper()
	dir := t.TempDir()
	views = filepath.Join(dir, "views.dl")
	base = filepath.Join(dir, "base.dl")
	writeFile(t, views, testViews)
	var b strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "r(k%d, m%d).\n", i, i%4)
	}
	for j := 0; j < 4; j++ {
		fmt.Fprintf(&b, "s(m%d, x%d).\n", j, j)
	}
	writeFile(t, base, b.String())
	return views, base
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// startDaemon runs the daemon with the given args and returns its base URL
// plus a cancel that triggers graceful shutdown and waits for exit.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	notifyAddr = addrCh
	t.Cleanup(func() { notifyAddr = nil })

	runErr := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		runErr <- run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), &out)
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr.String(), func() error {
			cancel()
			select {
			case err := <-runErr:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("daemon did not exit; output:\n%s", out.String())
			}
		}
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never started listening\n%s", out.String())
	}
	panic("unreachable")
}

// TestDaemonEndToEnd boots an inline live namespace, runs the whole request
// surface over real HTTP, then shuts down gracefully via context cancel
// (the same path a SIGTERM takes).
func TestDaemonEndToEnd(t *testing.T) {
	views, base := inlineDir(t)
	url, shutdown := startDaemon(t, "-views", views, "-base", base, "-live")

	resp, raw := postJSON(t, url+"/v1/prepare", map[string]any{"query": "q(Y) :- r(k1,Z), s(Z,Y)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, raw)
	}
	var prep struct {
		Handle    string   `json:"handle"`
		NumParams int      `json:"num_params"`
		Args      []string `json:"args"`
	}
	if err := json.Unmarshal(raw, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Handle == "" || prep.NumParams != 1 {
		t.Fatalf("prepare = %+v", prep)
	}

	resp, raw = postJSON(t, url+"/v1/exec", map[string]any{"handle": prep.Handle, "args": []string{"k2"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: %d %s", resp.StatusCode, raw)
	}
	var ans struct {
		Answers [][]string `json:"answers"`
		Count   int        `json:"count"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 1 || ans.Answers[0][0] != "x2" {
		t.Fatalf("exec answers = %+v", ans)
	}

	// Batch insert, then observe it through a one-shot query.
	resp, raw = postJSON(t, url+"/v1/batch", map[string]any{
		"updates": map[string][][]string{"r": {{"k100", "m0"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, url+"/v1/query", map[string]any{"query": "q(Y) :- r(k100,Z), s(Z,Y)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 1 || ans.Answers[0][0] != "x0" {
		t.Fatalf("post-batch answers = %+v", ans)
	}

	// Mixed batch: retract the fact just inserted and insert a replacement
	// in the same atomic unit.
	resp, raw = postJSON(t, url+"/v1/batch", map[string]any{
		"updates": map[string][][]string{"r": {{"k101", "m0"}}},
		"deletes": map[string][][]string{"r": {{"k100", "m0"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"deleted":1`)) {
		t.Fatalf("mixed batch response missing deleted count: %s", raw)
	}
	resp, raw = postJSON(t, url+"/v1/query", map[string]any{"query": "q(Y) :- r(k100,Z), s(Z,Y)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 0 {
		t.Fatalf("retracted fact still answered: %+v", ans)
	}
	resp, raw = postJSON(t, url+"/v1/query", map[string]any{"query": "q(Y) :- r(k101,Z), s(Z,Y)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 1 || ans.Answers[0][0] != "x0" {
		t.Fatalf("post-mixed answers = %+v", ans)
	}

	// Health + stats.
	hr, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !bytes.Contains(hraw, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", hr.StatusCode, hraw)
	}
	sr, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || !bytes.Contains(sraw, []byte(`"default"`)) {
		t.Fatalf("stats: %d %s", sr.StatusCode, sraw)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("daemon still accepting connections after shutdown")
	}
}

// TestDaemonConfigDir boots from a namespace config directory and routes to
// both namespaces.
func TestDaemonConfigDir(t *testing.T) {
	dir := t.TempDir()
	for _, ns := range []string{"alpha", "beta"} {
		nsDir := filepath.Join(dir, ns)
		if err := os.Mkdir(nsDir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(nsDir, "views.dl"), testViews)
		writeFile(t, filepath.Join(nsDir, "base.dl"), fmt.Sprintf("r(a%s, m0).\ns(m0, x0).\n", ns))
	}
	writeFile(t, filepath.Join(dir, "beta", "config.json"), `{"strategy": "inverse-rules", "live_updates": true}`)

	url, shutdown := startDaemon(t, "-config", dir)
	for _, ns := range []string{"alpha", "beta"} {
		resp, raw := postJSON(t, url+"/v1/ns/"+ns+"/query", map[string]any{"query": "q(X,Y) :- r(X,Z), s(Z,Y)."})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s query: %d %s", ns, resp.StatusCode, raw)
		}
		if !bytes.Contains(raw, []byte("a"+ns)) {
			t.Fatalf("%s answers missing its own data: %s", ns, raw)
		}
	}
	// beta is live, alpha is frozen.
	batch := map[string]any{"updates": map[string][][]string{"r": {{"anew", "m0"}}}}
	resp, _ := postJSON(t, url+"/v1/ns/beta/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta batch: %d", resp.StatusCode)
	}
	resp, raw := postJSON(t, url+"/v1/ns/alpha/batch", batch)
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(raw, []byte("not_live")) {
		t.Fatalf("alpha batch: %d %s", resp.StatusCode, raw)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRegistryFlagErrors(t *testing.T) {
	if _, err := buildRegistry("", "", "", "", server.Config{}); err == nil {
		t.Fatal("no mode selected should error")
	}
	if _, err := buildRegistry("x", "y", "", "", server.Config{}); err == nil {
		t.Fatal("both modes selected should error")
	}
	if _, err := buildRegistry(t.TempDir(), "", "", "", server.Config{}); err == nil {
		t.Fatal("empty config dir should error")
	}
}

// TestDaemonDurableRestart covers the graceful path: boot with -data,
// apply a batch, shut down (checkpoint), boot again from disk and verify
// the batch survived and the stats endpoint reports durable storage.
func TestDaemonDurableRestart(t *testing.T) {
	views, base := inlineDir(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-views", views, "-base", base, "-live", "-data", dataDir}

	url, shutdown := startDaemon(t, args...)
	resp, raw := postJSON(t, url+"/v1/batch", map[string]any{
		"updates": map[string][][]string{"r": {{"persisted", "m0"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	url, shutdown = startDaemon(t, args...)
	defer shutdown()
	resp, raw = postJSON(t, url+"/v1/query", map[string]any{"query": "q(Y) :- r(persisted,Z), s(Z,Y)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart query: %d %s", resp.StatusCode, raw)
	}
	var ans struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 1 {
		t.Fatalf("batch applied before restart not served after: %s", raw)
	}
	sr, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	var all map[string]struct {
		Engine struct {
			Durable struct {
				Enabled         bool
				RecoveredTuples int
			}
		} `json:"engine"`
	}
	if err := json.Unmarshal(sraw, &all); err != nil {
		t.Fatalf("stats decode: %v\n%s", err, sraw)
	}
	st := all["default"].Engine.Durable
	if !st.Enabled || st.RecoveredTuples == 0 {
		t.Fatalf("stats report no durable recovery: %+v\n%s", st, sraw)
	}
}

// TestDaemonDropsSlowHeaderClient: a client that sends half a request
// header and stalls is disconnected once readHeaderTimeout passes, while a
// keep-alive client issuing complete requests keeps its one connection.
func TestDaemonDropsSlowHeaderClient(t *testing.T) {
	views, base := inlineDir(t)
	url, shutdown := startDaemon(t, "-views", views, "-base", base)
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatal(err)
		}
	}()

	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/query HTTP/1.1\r\nHost: aqvd\r\n"); err != nil {
		t.Fatal(err)
	}

	// A busy keep-alive client is unaffected: both requests succeed over
	// one reused connection while the slow client hangs.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	reused := 0
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if info.Reused {
					reused++
				}
			},
		}))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz %d: status %d", i, resp.StatusCode)
		}
	}
	if reused != 1 {
		t.Fatalf("keep-alive connection reused %d time(s), want 1", reused)
	}

	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	if n != 0 || err == nil {
		t.Fatalf("slow-header client read %d byte(s), err %v; want the connection closed", n, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("slow-header connection still open after %v", time.Since(start))
	}
}
