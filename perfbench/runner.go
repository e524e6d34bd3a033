package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"strings"
	"time"

	"mmutricks/internal/report"
)

// workload is one seeded input set the benchmark drives. Every pass of
// a workload starts from a fresh set-up, so the simulated counters of a
// pass repeat exactly for a given seed.
type workload struct {
	name string
	// setup boots the pass's machines and kernels, generates the seeded
	// inputs, and pre-faults them. sp is nil unless the run is traced.
	setup func(seed int64, sp *spans) pass
}

// pass is one set-up instance of a workload, ready to run.
type pass interface {
	// ops is the number of operations in the pass.
	ops() int
	// op runs operation i. It may panic; the runner contains it.
	op(i int, sp *spans)
	// verify checks the simulator's state after operation i and
	// returns a checksum of its counters at that point.
	verify(i int) (checksum string, err error)
	// counts reads the pass's exact simulated totals so far.
	counts() simCounts
}

// simCounts are the simulated totals a pass reads from its machines.
type simCounts struct {
	refs   uint64             // I + D cache accesses
	cycles uint64             // simulated cycles
	layers map[string]float64 // per-layer counts (see layers.go)
}

// opResult is one operation's outcome.
type opResult struct {
	dur      time.Duration
	checksum string
	reason   string // failure class; "" when the operation succeeded
}

// passResult is one pass's outcome.
type passResult struct {
	setup time.Duration
	wall  time.Duration // host time inside the pass's operations
	refs  uint64
	cyc   uint64
	ops   []opResult
	// traced marks a pass run with the benchmark's spans on.
	traced bool
	// layers holds the raw per-layer counts of a pass in a traced run,
	// and host the Go runtime's totals over its operations (the checks
	// between operations excluded).
	layers map[string]float64
	host   hostStats
	// peakRSS is the process's peak resident memory during the pass,
	// in MB (0 where the platform does not report it).
	peakRSS float64
}

// runConfig is what one invocation asks for.
type runConfig struct {
	seed    int64
	budget  time.Duration
	spanDir string // where a traced run writes its spans ("" = nowhere)
	// traced reads per-layer counts and runtime totals at every pass
	// boundary.
	traced bool
}

// checkGarbageLimit is how many bytes the checks between operations
// may allocate before the runner collects them: well under the heap
// growth that starts a collection on its own (GOGC 300 on a live heap
// of several MB).
const checkGarbageLimit = 4 << 20

// minPasses is the fewest passes a run makes: the first is a warm-up
// excluded from the timings, the rest are measured.
const minPasses = 3

// runPass sets up and runs one pass, containing any panic.
func runPass(w workload, cfg runConfig, sp *spans) passResult {
	pr := passResult{traced: sp != nil}
	t0 := time.Now()
	var p pass
	if reason := contain(func() { p = w.setup(cfg.seed, sp) }); reason != "" {
		// A failed set-up is one failed operation: nothing else ran.
		pr.setup = time.Since(t0)
		pr.ops = []opResult{{reason: "setup-" + reason}}
		return pr
	}
	pr.setup = time.Since(t0)
	start := p.counts()
	pr.ops = make([]opResult, p.ops())
	var checkGarbage uint64
	for i := range pr.ops {
		o := &pr.ops[i]
		before := readHost(cfg.traced)
		t := time.Now()
		o.reason = contain(func() { p.op(i, sp) })
		o.dur = time.Since(t)
		pr.host = pr.host.add(readHost(cfg.traced).sub(before))
		pr.wall += o.dur
		var err error
		a := heapAllocs()
		reason := contain(func() { o.checksum, err = p.verify(i) })
		// The checks allocate far more than the simulator does
		// (CheckConsistency rebuilds its maps on every call). Collect
		// their garbage here, outside the timed operations, before it
		// drives a collection inside one or inflates the pass's peak
		// memory.
		if checkGarbage += heapAllocs() - a; checkGarbage > checkGarbageLimit {
			runtime.GC()
			checkGarbage = 0
		}
		switch {
		case o.reason != "":
		case reason != "":
			o.reason = "check-" + reason
		case err != nil:
			o.reason = "check: " + err.Error()
		}
	}
	end := p.counts()
	pr.refs = end.refs - start.refs
	pr.cyc = end.cycles - start.cycles
	if cfg.traced {
		pr.layers = subLayers(end.layers, start.layers)
	}
	return pr
}

// contain runs fn and classifies a panic with the harness's own
// classifier; it returns "" when fn returned normally.
func contain(fn func()) (reason string) {
	defer func() {
		if p := recover(); p != nil {
			reason = report.FailureReason(p)
		}
	}()
	fn()
	return ""
}

// ledger accumulates the passes of one run and the failures they held.
type ledger struct {
	passes    []passResult
	first     []string // per-operation checksums of the first complete pass
	attempted int
	failed    int
	failures  map[string]int
}

// add records a pass, failing any operation whose counter checksum
// differs from the same operation in the first pass of this seed.
func (l *ledger) add(pr passResult) {
	if l.failures == nil {
		l.failures = map[string]int{}
	}
	if l.first == nil && !pr.failedAny() {
		l.first = make([]string, len(pr.ops))
		for i, o := range pr.ops {
			l.first[i] = o.checksum
		}
	}
	for i := range pr.ops {
		o := &pr.ops[i]
		if o.reason == "" && l.first != nil && (i >= len(l.first) || o.checksum != l.first[i]) {
			o.reason = "checksum"
		}
		l.attempted++
		if o.reason != "" {
			l.failed++
			l.failures[firstLine(o.reason)]++
		}
	}
	l.passes = append(l.passes, pr)
}

func (pr *passResult) failedAny() bool {
	for _, o := range pr.ops {
		if o.reason != "" {
			return true
		}
	}
	return len(pr.ops) == 0
}

// passChecksum folds the per-operation checksums of the first complete
// pass into one printable value.
func (l *ledger) passChecksum() string {
	if l.first == nil {
		return "none"
	}
	h := sha256.New()
	for _, s := range l.first {
		fmt.Fprintln(h, s)
	}
	return digest(h)
}

// measured returns the passes that count toward the timings: all but
// the warm-up pass.
func (l *ledger) measured() []passResult {
	if len(l.passes) > 1 {
		return l.passes[1:]
	}
	return l.passes
}

// loop runs passes until the budget is spent (and at least minPasses
// ran). sp selects traced passes: when it returns nil the pass runs
// with the benchmark's spans off.
func loop(w workload, cfg runConfig, budget time.Duration, sp func(i int) *spans) *ledger {
	l := &ledger{}
	deadline := time.Now().Add(budget)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		// Start every pass from a collected heap, so a pass does not
		// pay for its predecessor's garbage and its peak memory is its
		// own.
		runtime.GC()
		resetPeakRSS()
		pr := runPass(w, cfg, sp(i))
		pr.peakRSS = peakRSSMB()
		l.add(pr)
	}
	return l
}

// runPlain is the end-to-end run: spans off, every end-to-end metric.
func runPlain(w workload, cfg runConfig) result {
	l := loop(w, cfg, cfg.budget, func(int) *spans { return nil })
	res := l.result(w, cfg)
	res.metrics = endToEnd(l)
	return res
}

func (l *ledger) result(w workload, cfg runConfig) result {
	return result{
		workload:  w.name,
		seed:      cfg.seed,
		attempted: l.attempted,
		failed:    l.failed,
		failures:  l.failures,
		checksum:  l.passChecksum(),
		notes: []string{fmt.Sprintf("passes %d (first is warm-up), operations per pass %d",
			len(l.passes), len(l.passes[0].ops))},
	}
}

// endToEnd computes the end-to-end metrics of a run.
func endToEnd(l *ledger) []metric {
	ms := l.measured()
	var setups, walls, perRef, rss []float64
	for _, pr := range l.passes {
		setups = append(setups, pr.setup.Seconds())
	}
	for _, pr := range ms {
		walls = append(walls, pr.wall.Seconds())
		rss = append(rss, pr.peakRSS)
		if pr.refs > 0 {
			perRef = append(perRef, float64(pr.wall.Nanoseconds())/float64(pr.refs))
		}
	}
	ops := opTimes(ms)
	return []metric{
		{"setup_s", "s", hostTime(setups)},
		{"pass_s", "s", hostTime(walls)},
		{"op_p50_ms", "ms", quantile(ops, 0.5)},
		{"op_p90_ms", "ms", quantile(ops, 0.9)},
		{"host_ns_per_ref", "ns", hostTime(perRef)},
		{"peak_rss_mb", "MB", median(rss)},
	}
}

// hostQuantile is the quantile over a run's passes that the end-to-end
// host timings report. Interference from the rest of a shared host only
// ever slows a pass down, so the fast end of the repeats estimates the
// program's own cost best. This host has phases, seconds to minutes
// long, in which everything runs up to twice as slow (process CPU time
// slows with wall time, so it is not descheduling). A median over
// passes moves with the share of a run that falls in such phases; the
// lowest tenth stays at the host's normal speed as long as a tenth of
// the run does. A change to the program moves every pass, and so moves
// this quantile too.
const hostQuantile = 0.1

// hostTime reports a host timing over repeats of the same work.
func hostTime(xs []float64) float64 { return quantile(xs, hostQuantile) }

// opTimes returns each operation's host time in ms over the passes, as
// hostTime reports it. Every pass of a seed runs the same operations in
// the same order, so operation i is the same work in every pass. The
// percentiles over these times are the spread of operation cost within
// a pass; a phase of host slowness that hits some passes does not put
// the operations it hit into the tail.
func opTimes(passes []passResult) []float64 {
	var byOp [][]float64
	for _, pr := range passes {
		for i, o := range pr.ops {
			if i == len(byOp) {
				byOp = append(byOp, nil)
			}
			byOp[i] = append(byOp[i], float64(o.dur.Nanoseconds())/1e6)
		}
	}
	ops := make([]float64, len(byOp))
	for i, ds := range byOp {
		ops[i] = hostTime(ds)
	}
	return ops
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// digest returns a short hex digest of everything written to h.
func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }
