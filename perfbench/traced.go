package main

import (
	"fmt"
	"time"
)

// probeReserve is the part of a traced run's budget kept for the layer
// probes and the registry pass that follow the workload's passes.
const probeReserve = 6 * time.Second

// runTraced is the per-layer run. Its passes alternate between spans on
// and spans off after the warm-up pass; the ratio of the two medians is
// the spans' own overhead. Spans come from the spans-on passes; exact
// counts, host rates and runtime totals from the spans-off ones. The
// layer probes and one registry pass follow.
func runTraced(w workload, cfg runConfig) result {
	sp := newSpans()
	cfg.traced = true
	budget := cfg.budget - probeReserve
	if budget < cfg.budget/2 {
		budget = cfg.budget / 2
	}
	l := loop(w, cfg, budget, func(i int) *spans {
		if i%2 == 1 {
			return sp
		}
		return nil
	})
	vals := map[string]float64{}
	var on, off, rate, alloc, gcs, pause []float64
	counts := map[string][]float64{}
	for _, pr := range l.measured() {
		if pr.traced {
			on = append(on, pr.wall.Seconds())
			continue
		}
		off = append(off, pr.wall.Seconds())
		rate = append(rate, float64(pr.cyc)/pr.wall.Seconds()/1e6)
		alloc = append(alloc, float64(pr.host.allocBytes)/1024)
		gcs = append(gcs, float64(pr.host.gcCount))
		pause = append(pause, float64(pr.host.gcPauseNs)/1e6)
		for k, v := range deriveCounts(pr.layers) {
			counts[k] = append(counts[k], v)
		}
	}
	for k, vs := range counts {
		vals[k] = median(vs)
	}
	vals["clock.sim_mcycles_per_s"] = median(rate)
	vals["host.alloc_kb_per_pass"] = median(alloc)
	vals["host.gc_count_per_pass"] = median(gcs)
	vals["host.gc_pause_ms_per_pass"] = median(pause)
	vals["bench.span_overhead_ratio"] = ratio(median(on), median(off))

	for k, v := range runProbes(cfg.seed) {
		vals[k] = v
	}
	vals["mmtrace.overhead_ratio"] = traceOverhead(cfg.seed)
	reg := runRegistry(sp)
	for k, v := range reg.metrics {
		vals[k] = v
	}

	res := l.result(w, cfg)
	res.attempted += reg.attempted
	for reason, n := range reg.failures {
		res.failures[reason] += n
		res.failed += n
	}
	res.notes = append(res.notes, fmt.Sprintf("registry pass: %d experiments", reg.attempted))
	if cfg.spanDir != "" {
		path, err := sp.write(cfg.spanDir, w.name, cfg.seed)
		if err != nil {
			res.notes = append(res.notes, "spans not written: "+err.Error())
		} else {
			res.notes = append(res.notes, fmt.Sprintf("spans covering %d calls recorded, the first %d written to %s", sp.total(), len(sp.raw), path))
		}
	}
	for _, m := range layerMetrics() {
		v, ok := vals[m.name]
		if !ok {
			if u := timeUnit(m.unit); u != 0 {
				v = sp.mean(m.name, u)
			}
		}
		res.metrics = append(res.metrics, metric{m.name, m.unit, v})
	}
	return res
}
