// Command perfbench is the repository's benchmark. It runs one workload
// in-process through the system's public entry points (harness.Run,
// svc.Start and svc.Client, compiler.Compile, interp.RunSeq,
// host.NewNet), times every call from outside, checks every result
// against its sequential or solo reference, and prints every metric by
// name with its unit.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer ones. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Any failed run or
// job makes correct false and the exit status 1. README.md describes the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed for the run order and the service's job sequence")
	secs := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := runWorkload(w, options{seed: *seed, seconds: *secs, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	metrics, err := collect(defs, out.vals, *trace == 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s, seed %d, %.0f s, trace %d\n", w.name, *seed, *secs, *trace)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	for _, d := range defs {
		fmt.Printf("%-22s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	chk := out.chk
	for _, e := range chk.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{chk.failed == 0, chk.attempted, chk.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if chk.failed > 0 {
		os.Exit(1)
	}
}
