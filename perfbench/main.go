// Command perfbench is the simulator's host-cost benchmark. It drives
// one seeded workload through the simulator's public entry points in a
// closed loop (the next operation starts when the previous one
// returns), checks every operation's outputs, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's spans off. With --trace 1 they are the per-layer ones:
// spans the benchmark records around its own calls into each layer,
// exact simulator event counts read at the same boundaries, and
// micro-probes of single layer functions.
//
// Run it from the repository root with perfbench/run.sh, which builds
// the binary with the checked-in PGO profile:
//
//	bash perfbench/run.sh --workload kbuild --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The same GC target mmureport uses, so the benchmark measures the
	// configuration users run; GOGC still overrides.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Int("seconds", 40, "how long to measure, in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	prov := provenance(*seed)
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second}
	var res result
	if *traced == 1 {
		cfg.spanDir = spanDir
		res = runTraced(w, cfg)
	} else {
		res = runPlain(w, cfg)
	}
	res.print(stdout)
	return 0
}

// result is what one invocation reports.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	failures  map[string]int // reason -> count
	checksum  string         // counter checksum of the pass (same for every pass of a seed)
	notes     []string
	metrics   []metric
}

type metric struct {
	name  string
	unit  string
	value float64
}

// print writes the human-readable lines, then the JSON result line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d attempted %d failed %d checksum %s\n",
		r.workload, r.seed, r.attempted, r.failed, r.checksum)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, reason := range sortedKeys(r.failures) {
		fmt.Fprintf(w, "failure %s %d\n", reason, r.failures[reason])
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-34s %14.6g %s\n", "error_rate", rate, "ratio")
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal; that is a bug
		// in a metric formula.
		panic(fmt.Sprintf("perfbench: marshal result: %v", err))
	}
	fmt.Fprintf(w, "%s\n", out)
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
