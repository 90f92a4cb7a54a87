package main

// The daemon under test: an aqvd child process built from the checkout,
// booted from the generated namespace directory, addressed on the port it
// reports, and killed or stopped by signal. Every process started here is
// waited for.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
)

// bootTimeout bounds one daemon boot.
const bootTimeout = 120 * time.Second

// writeNamespace writes the workload's inputs as an aqvd config directory:
// dir/default/{views.dl, base.dl, config.json}.
func writeNamespace(s *spec, dir string) error {
	ns := filepath.Join(dir, server.DefaultNamespace)
	if err := os.MkdirAll(ns, 0o755); err != nil {
		return err
	}
	var views strings.Builder
	for _, v := range s.views {
		views.WriteString(v.String())
		views.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(ns, "views.dl"), []byte(views.String()), 0o644); err != nil {
		return err
	}
	cfg, err := json.Marshal(s.cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(ns, "config.json"), cfg, 0o644); err != nil {
		return err
	}
	return writeBase(s.base, filepath.Join(ns, "base.dl"))
}

func writeBase(db *storage.Database, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemon is one running aqvd.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	exit chan error // receives cmd.Wait's result once
}

// spawn starts aqvd with the given arguments and returns once /healthz
// answers 200, with the time from process start to that answer.
func spawn(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0")...)
	cmd.Stderr = logf
	// The kernel kills the daemon if the benchmark dies on a path that
	// skips kill (a panic, a signal), so no daemon outlives a run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exit: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// The daemon announces its bound address on stdout; every line goes
		// to the log. The scan ends when the process exits.
		defer logf.Close()
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, " on http://"); !sent && i >= 0 {
				addr <- line[i+len(" on http://"):]
				sent = true
			}
		}
		d.exit <- cmd.Wait()
	}()

	select {
	case a := <-addr:
		d.url = "http://" + a
	case err := <-d.exit:
		d.exit <- err
		return nil, 0, fmt.Errorf("aqvd exited during boot (%v); see %s", err, logPath)
	case <-time.After(bootTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("aqvd did not boot within %v", bootTimeout)
	}
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return d, time.Since(start), nil
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // the process may already be gone
	err := <-d.exit
	d.exit <- err
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// nsStats is the part of a /v1/stats reply the benchmark reads.
type nsStats struct {
	Engine engine.Stats `json:"engine"`
}

// stats fetches the default namespace's counters.
func (d *daemon) stats(ctx context.Context) (nsStats, error) {
	var st nsStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/ns/default/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the aggregate cpu line; zero when unavailable.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		st.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of CPU time stolen since an earlier reading.
func (st cpuStat) stealPct(since cpuStat) float64 {
	if st.total <= since.total {
		return 0
	}
	return 100 * float64(st.steal-since.steal) / float64(st.total-since.total)
}
