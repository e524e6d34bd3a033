package main

import (
	"crypto/sha256"
	"fmt"

	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/telemetry"
)

// fleet is the set of booted kernels one pass drives.
type fleet []*kernel.Kernel

// boot builds a machine and boots a kernel on it, inside a
// kernel.boot_ms span. trace enables the event tracer and the phase
// ledger before boot, as mmustat record does, so the recorded window
// covers the whole run.
func boot(sp *spans, model clock.CPUModel, trace bool) *kernel.Kernel {
	sp.begin("kernel.boot_ms")
	defer sp.end()
	m := machine.NewWithOptions(model, machine.Options{})
	if trace {
		m.Trc.Enable()
		m.Ph.Enable(telemetry.Options{SampleInterval: telemetry.DefaultSampleInterval})
	}
	return kernel.New(m, kernel.Optimized())
}

// counts sums the exact simulated counters of every machine.
func (f fleet) counts() simCounts {
	c := simCounts{layers: map[string]float64{}}
	for _, k := range f {
		m := k.M
		d, i := m.DCache.Stats(), m.ICache.Stats()
		c.refs += d.TotalAccesses() + i.TotalAccesses()
		c.cycles += uint64(m.Led.Now())
		l := c.layers
		l["d.acc"] += float64(d.TotalAccesses())
		l["d.miss"] += float64(d.TotalMisses())
		l["i.acc"] += float64(i.TotalAccesses())
		l["i.miss"] += float64(i.TotalMisses())
		for _, cl := range cache.Classes {
			l["cache.castouts"] += float64(d.Castouts[cl])
		}
		l["cache.pt_pollution"] += float64(d.PollutionBy(cache.ClassPageTable))
		mon := m.Mon
		l["tlb.hit"] += float64(mon.TLBHits)
		l["tlb.miss"] += float64(mon.TLBMisses)
		l["htab.hit"] += float64(mon.HTABHits)
		l["htab.miss"] += float64(mon.HTABMisses)
		l["ppc.bat_hits"] += float64(mon.BATHits)
		l["ppc.hw_walks"] += float64(mon.HardwareWalks)
		l["ppc.soft_reloads"] += float64(mon.SoftwareReloads)
		l["ppc.hash_miss_faults"] += float64(mon.HashMissFaults)
		l["ppc.htab_inserts"] += float64(mon.HTABInserts)
		l["ppc.htab_evicts_valid"] += float64(mon.HTABEvictsValid)
		l["ppc.htab_evicts_zombie"] += float64(mon.HTABEvictsZombie)
		l["kernel.major_faults"] += float64(mon.MajorFaults)
		l["kernel.minor_faults"] += float64(mon.MinorFaults)
		l["kernel.syscalls"] += float64(mon.Syscalls)
		l["kernel.ctx_switches"] += float64(mon.CtxSwitches)
		l["kernel.forks"] += float64(mon.Forks)
		l["kernel.flush_context"] += float64(mon.FlushContext)
		l["kernel.flush_range"] += float64(mon.FlushRange)
		l["kernel.zombies_reclaimed"] += float64(mon.ZombiesReclaimed)
		l["kernel.idle_pages_cleared"] += float64(mon.IdlePagesCleared)
		l["kernel.cleared_page_hits"] += float64(mon.ClearedPageHits)
		l["mmtrace.events_per_pass"] += float64(m.Trc.Emitted())
		l["mmtrace.dropped"] += float64(m.Trc.Dropped())
		for ph := range telemetry.PhaseNames() {
			l["telemetry.phase_enters"] += float64(m.Ph.Enters(telemetry.Phase(ph)))
		}
	}
	return c
}

// checksum fingerprints the simulated state of kernel k: hwmon
// counters, both caches' statistics, and the cycle ledger. A
// speed-only change to the simulator must leave it unchanged.
func checksum(k *kernel.Kernel) string {
	m := k.M
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v|%d\n", *m.Mon, *m.DCache.Stats(), *m.ICache.Stats(), m.Led.Now())
	return digest(h)
}
