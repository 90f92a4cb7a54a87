// Command perfbench is the end-to-end benchmark of aqvd. It boots a real
// aqvd child process per run, drives it over HTTP from two closed-loop
// connections, checks every answer against an oracle derived from the
// generated inputs, and prints the end-to-end metrics (-trace 0) or, from a
// separate in-process traced run, the per-layer metrics (-trace 1).
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench -workload read|adhoc|churn -seed N -seconds S -trace 0|1
//	perfbench -workload all -seed N -seconds S   # every workload, both modes
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is one run's result line plus what the report prints around it.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// extra holds figures the report prints but the result line omits;
	// samples counts successful requests per class; notes are further
	// report lines (failures, accounting).
	extra   []metric
	samples map[string]int
	notes   []string
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	aqvd     string
	work     string
	scale    float64
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs and request streams are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.aqvd, "aqvd", filepath.Join(".bench_build", "aqvd"), "aqvd binary under test")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for inputs, data and logs")
	flag.Float64Var(&o.scale, "scale", 1, "data size relative to the benchmark's (for sizing studies; results at other scales are not comparable)")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat(o.aqvd); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: aqvd binary: %v (build it with perfbench/run.sh)\n", err)
		os.Exit(1)
	}
	ctx := context.Background()
	var err error
	if o.workload == "all" {
		err = runAll(ctx, o, os.Stdout)
	} else {
		err = runWorkload(ctx, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in one mode and prints its report and result
// line.
func runWorkload(ctx context.Context, o options, w io.Writer) error {
	out, err := measure(ctx, o)
	if err != nil {
		return err
	}
	printReport(w, o, out)
	line, err := resultLine(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, line)
	if !out.correct {
		return fmt.Errorf("%s: the run failed its checks", o.workload)
	}
	return nil
}

// runAll runs every workload untraced and traced, prints every report,
// and ends with one result line whose metric names carry the workload.
func runAll(ctx context.Context, o options, w io.Writer) error {
	all := outcome{correct: true}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			oo := o
			oo.workload, oo.trace = name, traced
			out, err := measure(ctx, oo)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printReport(w, oo, out)
			all.correct = all.correct && out.correct
			all.attempted += out.attempted
			all.failed += out.failed
			for _, m := range out.metrics {
				m.name = name + "." + m.name
				all.metrics = append(all.metrics, m)
			}
		}
	}
	line, err := resultLine(&all)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, line)
	if !all.correct {
		return fmt.Errorf("a run failed its checks")
	}
	return nil
}

// measure generates the workload and runs it in the requested mode.
func measure(ctx context.Context, o options) (*outcome, error) {
	s, err := generate(o.workload, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.trace {
		return traced(ctx, s, o, dir)
	}
	return endToEnd(ctx, s, o, dir)
}

// resultLine renders the final JSON line.
func resultLine(out *outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(out.metrics))
	for _, m := range out.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	return string(b), err
}

// printReport prints the run's context, sample counts, metrics and notes.
func printReport(w io.Writer, o options, out *outcome) {
	mode := "end-to-end (untraced)"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# workload=%s mode=%s seed=%d seconds=%d\n", o.workload, mode, o.seed, o.seconds)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d GOMAXPROCS_env=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GOMAXPROCS"))
	classes := make([]string, 0, len(out.samples))
	for c := range out.samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "# samples %s=%d\n", c, out.samples[c])
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", out.attempted, out.failed, out.correct)
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-8s %-36s %16.6f %s\n", o.workload, m.name, m.value, m.unit)
	}
	for _, m := range out.extra {
		fmt.Fprintf(w, "%-8s %-36s %16.6f %s (report only)\n", o.workload, m.name, m.value, m.unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}
