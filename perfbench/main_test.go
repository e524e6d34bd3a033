package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// runOnce sets up one pass of w and runs every operation, returning
// the per-operation counter checksums.
func runOnce(t *testing.T, w workload, seed int64) []string {
	t.Helper()
	pr := runPass(w, runConfig{seed: seed}, nil)
	var sums []string
	for i, o := range pr.ops {
		if o.reason != "" {
			t.Fatalf("%s seed %d: operation %d failed: %s", w.name, seed, i, o.reason)
		}
		sums = append(sums, o.checksum)
	}
	return sums
}

// Each generator is deterministic: the same seed gives the same inputs
// and the same counter checksums; another seed gives other inputs.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runOnce(t, w, 7), runOnce(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two passes of seed 7 differ:\n%v\n%v", a, b)
			}
			if c := runOnce(t, w, 8); reflect.DeepEqual(a, c) {
				t.Errorf("seeds 7 and 8 give identical checksums")
			}
		})
	}
	if reflect.DeepEqual(kbuildPlan(1), kbuildPlan(2)) {
		t.Error("kbuild plan does not depend on the seed")
	}
	if !reflect.DeepEqual(kbuildPlan(3), kbuildPlan(3)) {
		t.Error("kbuild plan is not deterministic")
	}
	if reflect.DeepEqual(scatterStreams(1), scatterStreams(2)) {
		t.Error("scatter streams do not depend on the seed")
	}
	if !reflect.DeepEqual(scatterStreams(3), scatterStreams(3)) {
		t.Error("scatter streams are not deterministic")
	}
	if reflect.DeepEqual(lmbenchPlan(1), lmbenchPlan(2)) {
		t.Error("lmbench plan does not depend on the seed")
	}
	if !reflect.DeepEqual(lmbenchPlan(3), lmbenchPlan(3)) {
		t.Error("lmbench plan is not deterministic")
	}
}

// planted is a workload of three operations per pass whose failures
// are planted: pass 1 panics in operation 1, and pass 2 returns a
// counter checksum for operation 2 that differs from pass 0's.
type planted struct {
	passes int
}

func (pl *planted) workload() workload {
	return workload{name: "planted", setup: func(int64, *spans) pass {
		pl.passes++
		return &plantedOps{pass: pl.passes - 1}
	}}
}

type plantedOps struct{ pass int }

func (p *plantedOps) ops() int { return 3 }
func (p *plantedOps) op(i int, sp *spans) {
	if p.pass == 1 && i == 1 {
		panic("planted failure")
	}
}
func (p *plantedOps) verify(i int) (string, error) {
	if p.pass == 2 && i == 2 {
		return "drifted", nil
	}
	return "same", nil
}
func (p *plantedOps) counts() simCounts { return simCounts{refs: 1, cycles: 1} }

// A planted panic and a planted checksum mismatch are each counted as
// one failed operation, and the run goes on to its remaining passes.
func TestPlantedFailuresCounted(t *testing.T) {
	pl := &planted{}
	l := loop(pl.workload(), runConfig{seed: 1}, 0, func(int) *spans { return nil })
	if len(l.passes) != minPasses {
		t.Fatalf("ran %d passes, want %d", len(l.passes), minPasses)
	}
	if l.attempted != 3*minPasses || l.failed != 2 {
		t.Fatalf("attempted %d failed %d, want %d and 2", l.attempted, l.failed, 3*minPasses)
	}
	if l.failures["panic"] != 1 || l.failures["checksum"] != 1 {
		t.Fatalf("failures by reason = %v, want one panic and one checksum", l.failures)
	}
	res := l.result(pl.workload(), runConfig{seed: 1})
	var out bytes.Buffer
	res.print(&out)
	if !strings.Contains(out.String(), `"correct":false,"attempted":9,"failed":2`) {
		t.Errorf("result line does not report the failures:\n%s", out.String())
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine parses the JSON result line the command ends with and
// returns its metric names with their units.
func lastLine(t *testing.T, out string) (names []string, units map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("result not clean: correct %v attempted %d failed %d", r.Correct, r.Attempted, r.Failed)
	}
	units = map[string]string{}
	for n, m := range r.Metrics {
		names = append(names, n)
		units[n] = m.Unit
	}
	sort.Strings(names)
	return names, units
}

func namesOf(ms []struct{ Name, Unit, Better string }) ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	for _, m := range ms {
		names = append(names, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(names)
	return names, units
}

// BENCHMARK.json names exactly the workloads the command accepts and
// the metrics, with their units, that it prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b := readBenchmarkJSON(t)
	var got []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command's %v", got, want)
	}

	var out bytes.Buffer
	if code := run([]string{"--workload", "lmbench-traced", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out, os.Stderr); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	names, units := lastLine(t, out.String())
	wantNames, wantUnits := namesOf(b.EndToEnd)
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(units, wantUnits) {
		t.Errorf("end-to-end metrics printed %v %v, BENCHMARK.json %v %v", names, units, wantNames, wantUnits)
	}

	out.Reset()
	res := runTraced(workloads[2], runConfig{seed: 3, budget: time.Second})
	res.print(&out)
	names, units = lastLine(t, out.String())
	wantNames, wantUnits = namesOf(b.PerLayer)
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(units, wantUnits) {
		t.Errorf("per-layer metrics printed %v %v, BENCHMARK.json %v %v", names, units, wantNames, wantUnits)
	}
}

// An unknown workload or a bad flag is a usage error, not a result.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kbuild", "--trace", "2"},
		{"--workload", "kbuild", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a usage error and no output", args, code, out.String())
		}
	}
}

// A phase of host slowness that hits some passes leaves the operation
// times where the other passes put them.
func TestOpTimesIgnoreMinorityBursts(t *testing.T) {
	pass := func(ms ...float64) passResult {
		var pr passResult
		for _, m := range ms {
			pr.ops = append(pr.ops, opResult{dur: time.Duration(m * 1e6)})
		}
		return pr
	}
	passes := []passResult{
		pass(10, 20, 30), pass(11, 21, 31), pass(10, 20, 30),
		pass(50, 60, 70), pass(12, 22, 32), pass(10, 20, 30),
	}
	got := opTimes(passes)
	if want := []float64{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("opTimes = %v, want %v", got, want)
	}
}
