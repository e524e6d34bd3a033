package main

import (
	"time"

	"mmutricks/internal/report"
)

// A layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// layerMetrics lists every per-layer metric a traced run prints, layer
// by layer, in output order. A metric that does not apply to a workload
// (a span the workload never opens, a counter it never moves) reads 0.
// Which end-to-end metric each should move, on which workload, is in
// README.md.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		// cache: exact counts per pass, then probes.
		{"cache.refs", "count"},
		{"cache.d_miss_ratio", "ratio"},
		{"cache.i_miss_ratio", "ratio"},
		{"cache.castouts", "count"},
		{"cache.pt_pollution", "count"},
		{"cache.run_ns_per_line", "ns"},
		{"cache.zero_run_ns_per_line", "ns"},
		{"cache.access_ns", "ns"},
		// ppc: TLB, BAT, MMU and hash table.
		{"ppc.tlb_miss_ratio", "ratio"},
		{"ppc.bat_hits", "count"},
		{"ppc.hw_walks", "count"},
		{"ppc.soft_reloads", "count"},
		{"ppc.hash_miss_faults", "count"},
		{"ppc.htab_hit_ratio", "ratio"},
		{"ppc.htab_inserts", "count"},
		{"ppc.htab_evicts_valid", "count"},
		{"ppc.htab_evicts_zombie", "count"},
		{"ppc.translate_bat_ns", "ns"},
		{"ppc.translate_tlbhit_ns", "ns"},
		{"ppc.translate_604walk_ns", "ns"},
		{"ppc.translate_603miss_ns", "ns"},
		{"ppc.htab_search_ns", "ns"},
		{"ppc.htab_insert_ns", "ns"},
		{"ppc.htab_reclaim_ns_per_pte", "ns"},
		// pagetable
		{"pagetable.walk_ns", "ns"},
		{"pagetable.map_ns", "ns"},
		// kernel: spans around the benchmark's calls, then counts.
		{"kernel.switch_us", "us"},
		{"kernel.ref_ns", "ns"},
		{"kernel.mprotect_us", "us"},
		{"kernel.idle_us", "us"},
		{"kernel.mmap_us", "us"},
		{"kernel.touch_page_us", "us"},
		{"kernel.boot_ms", "ms"},
		{"kernel.major_faults", "count"},
		{"kernel.minor_faults", "count"},
		{"kernel.syscalls", "count"},
		{"kernel.ctx_switches", "count"},
		{"kernel.forks", "count"},
		{"kernel.flush_context", "count"},
		{"kernel.flush_range", "count"},
		{"kernel.zombies_reclaimed", "count"},
		{"kernel.idle_pages_cleared", "count"},
		{"kernel.cleared_page_hits", "count"},
	}
	// lmbench and kbuild: the workload drivers.
	for _, b := range lmBenches {
		ms = append(ms, layerMetric{b.span(), "ms"})
	}
	ms = append(ms,
		layerMetric{"kbuild.run_ms", "ms"},
		// mmtrace and telemetry: the event path.
		layerMetric{"mmtrace.events_per_pass", "count"},
		layerMetric{"mmtrace.dropped", "count"},
		layerMetric{"telemetry.phase_enters", "count"},
		layerMetric{"mmtrace.overhead_ratio", "ratio"},
	)
	// report and workpool: the experiment harness.
	for _, e := range report.All() {
		ms = append(ms, layerMetric{"report.exp_ms." + e.ID, "ms"})
	}
	ms = append(ms,
		layerMetric{"report.render_ms", "ms"},
		layerMetric{"workpool.busy_ratio", "ratio"},
		// clock and the Go host runtime.
		layerMetric{"clock.sim_mcycles_per_s", "Mcycles/s"},
		layerMetric{"host.alloc_kb_per_pass", "KB"},
		layerMetric{"host.gc_count_per_pass", "count"},
		layerMetric{"host.gc_pause_ms_per_pass", "ms"},
		// the benchmark itself.
		layerMetric{"bench.span_overhead_ratio", "ratio"},
	)
	return ms
}

// layerUnits maps every per-layer metric name to its unit.
var layerUnits = func() map[string]string {
	u := map[string]string{}
	for _, m := range layerMetrics() {
		u[m.name] = m.unit
	}
	return u
}()

// timeUnit returns the duration a time unit names (0 for other units).
func timeUnit(unit string) time.Duration {
	switch unit {
	case "ns":
		return time.Nanosecond
	case "us":
		return time.Microsecond
	case "ms":
		return time.Millisecond
	}
	return 0
}

// subLayers returns end - start for every raw count.
func subLayers(end, start map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(end))
	for k, v := range end {
		d[k] = v - start[k]
	}
	return d
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveCounts turns one pass's raw count deltas into the count
// metrics.
func deriveCounts(d map[string]float64) map[string]float64 {
	out := map[string]float64{
		"cache.refs":         d["d.acc"] + d["i.acc"],
		"cache.d_miss_ratio": ratio(d["d.miss"], d["d.acc"]),
		"cache.i_miss_ratio": ratio(d["i.miss"], d["i.acc"]),
		"ppc.tlb_miss_ratio": ratio(d["tlb.miss"], d["tlb.hit"]+d["tlb.miss"]),
		"ppc.htab_hit_ratio": ratio(d["htab.hit"], d["htab.hit"]+d["htab.miss"]),
	}
	for k, v := range d {
		if _, metric := layerUnits[k]; metric {
			out[k] = v
		}
	}
	return out
}
