// Command aqvbench regenerates the experiment tables and figure series
// defined in DESIGN.md Section 5 (the 1995 paper is theory-only; these
// experiments validate its theorems and reproduce the canonical evaluation
// of the algorithms it founded).
//
// Usage:
//
//	aqvbench                          # run every experiment
//	aqvbench -exp F1                  # run one experiment
//	aqvbench -list                    # list experiment ids
//	aqvbench -evalbench BENCH_eval.json  # measure the evaluator, write JSON
//	aqvbench -governance BENCH_eval.json # measure cancellation-guard overhead,
//	                                     # merge the "governance" section
//	aqvbench -serve BENCH_serve.json     # drive the HTTP serving layer with
//	                                     # closed- and open-loop load plus a
//	                                     # mixed insert/delete batch churn phase
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aqvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aqvbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (T1..T5, F1..F6) or 'all'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	evalBench := fs.String("evalbench", "", "measure the evaluator (interp vs compiled cold/warm/parallel) and write machine-readable JSON to this path ('-' = stdout)")
	governance := fs.String("governance", "", "measure the cancellation-guard overhead (context-aware vs legacy evaluation) and merge the 'governance' section into the JSON report at this path ('-' = stdout)")
	serve := fs.String("serve", "", "drive the HTTP serving layer (closed- and open-loop load, mixed-batch churn) and write BENCH_serve.json to this path ('-' = stdout)")
	serveDur := fs.Duration("serve-dur", 2*time.Second, "wall time per -serve load point")
	serveConc := fs.String("serve-conc", "4,16", "closed-loop worker counts for -serve (comma-separated, at least two)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return nil
	}
	if *evalBench != "" {
		return runEvalBench(*evalBench)
	}
	if *governance != "" {
		return runGovernanceBench(*governance)
	}
	if *serve != "" {
		return runServeBench(*serve, *serveDur, *serveConc)
	}
	if strings.EqualFold(*exp, "all") {
		for _, id := range experiments.IDs() {
			run, _ := experiments.ByID(id)
			fmt.Println(run().Render())
		}
		return nil
	}
	run, ok := experiments.ByID(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	fmt.Println(run().Render())
	return nil
}
