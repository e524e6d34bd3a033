package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/ppc"
	"mmutricks/internal/report"
)

// Probes time single layer functions on seeded inputs shaped like the
// workloads: page-sized line runs and random lines for the cache,
// region sweeps far beyond TLB reach for translation. Each probe runs
// probeReps batches and reports the median host ns per call (or per
// line, or per reclaimed PTE).

const probeReps = 7

// probeNs times reps batches of fn, each preceded by an untimed prep,
// and returns the median of elapsed/per over the batches.
func probeNs(prep func(), fn func() (per int)) float64 {
	var xs []float64
	for r := 0; r < probeReps; r++ {
		prep()
		t := time.Now()
		per := fn()
		d := time.Since(t)
		if per > 0 {
			xs = append(xs, float64(d.Nanoseconds())/float64(per))
		}
	}
	return median(xs)
}

func nop() {}

// probeRegion is the size of the region the translation probes sweep:
// 16 MB, sixteen times the 604's TLB reach.
const probeRegion = 4096

// mappedTask boots an optimized kernel on model with one task whose
// probeRegion-page mapping is pre-faulted. The task is current, so its
// segments are loaded.
func mappedTask(model clock.CPUModel) (*kernel.Kernel, arch.EffectiveAddr) {
	k := kernel.New(machine.New(model), kernel.Optimized())
	k.Spawn(k.LoadImage("probe", 4))
	base := k.SysMmap(probeRegion)
	k.UserTouchPages(base, probeRegion)
	return k, base
}

// runProbes runs every layer probe and returns its metrics.
func runProbes(seed int64) map[string]float64 {
	r := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	model := clock.PPC604At185()

	// cache: a 604 L1 data cache; page-aligned runs and random lines
	// over all 32 MB of RAM.
	const runs, lines = 512, 128
	c := cache.New("D", model.L1Size, model.L1Ways, model.LineSize)
	pages := make([]arch.PhysAddr, runs)
	for i := range pages {
		pages[i] = arch.PhysAddr(r.Intn(8192) * arch.PageSize)
	}
	out["cache.run_ns_per_line"] = probeNs(nop, func() int {
		for i, pa := range pages {
			c.AccessRunCount(pa, lines, model.LineSize, cache.ClassUser, i%2 == 0)
		}
		return runs * lines
	})
	out["cache.zero_run_ns_per_line"] = probeNs(nop, func() int {
		for _, pa := range pages {
			c.ZeroLineRun(pa, lines, cache.ClassIdle)
		}
		return runs * lines
	})
	randLines := make([]arch.PhysAddr, 1<<16)
	for i := range randLines {
		randLines[i] = arch.PhysAddr(r.Intn(32<<20)) &^ arch.PhysAddr(model.LineSize-1)
	}
	out["cache.access_ns"] = probeNs(nop, func() int {
		for i, pa := range randLines {
			c.Access(pa, cache.ClassUser, i%4 == 3)
		}
		return len(randLines)
	})

	// ppc: translation on a 604 and a 603 kernel, each with a
	// pre-faulted region far beyond TLB reach.
	k604, base := mappedTask(model)
	k603, _ := mappedTask(clock.PPC603At180())
	mmu := k604.M.MMU
	kernelEAs := make([]arch.EffectiveAddr, 1<<14)
	for i := range kernelEAs {
		kernelEAs[i] = arch.EffectiveAddr(arch.KernelBase + r.Intn(16<<20))
	}
	out["ppc.translate_bat_ns"] = probeNs(nop, func() int {
		for _, ea := range kernelEAs {
			mmu.Translate(ea, false)
		}
		return len(kernelEAs)
	})
	hot := make([]arch.EffectiveAddr, 1<<14)
	for i := range hot {
		hot[i] = base + arch.EffectiveAddr(r.Intn(64)*arch.PageSize+r.Intn(arch.PageSize))
	}
	out["ppc.translate_tlbhit_ns"] = probeNs(func() {
		for p := 0; p < 64; p++ {
			mmu.Translate(base+arch.EffectiveAddr(p*arch.PageSize), false)
		}
	}, func() int {
		for _, ea := range hot {
			mmu.Translate(ea, false)
		}
		return len(hot)
	})
	// A sequential sweep of the region misses the TLB on every page:
	// the 604 walks the hash table, the optimized 603 kernel's MMU
	// raises the software-reload miss.
	sweep := func(m *ppc.MMU) func() int {
		return func() int {
			for p := 0; p < probeRegion; p++ {
				m.Translate(base+arch.EffectiveAddr(p*arch.PageSize), false)
			}
			return probeRegion
		}
	}
	out["ppc.translate_604walk_ns"] = probeNs(nop, sweep(mmu))
	out["ppc.translate_603miss_ns"] = probeNs(nop, sweep(k603.M.MMU))
	vpns := make([]arch.VPN, probeRegion)
	for i := range vpns {
		vpns[i] = mmu.VPNFor(base + arch.EffectiveAddr(r.Intn(probeRegion)*arch.PageSize))
	}
	out["ppc.htab_search_ns"] = probeNs(nop, func() int {
		for _, v := range vpns {
			mmu.HTAB.Search(v, k604.M)
		}
		return len(vpns)
	})
	// Inserts and reclaim run on a second hash table at the same
	// physical base, so they see the machine's cache but leave the
	// kernel's own table alone.
	htabBase := k604.M.Mem.Layout().HTABBase
	randVPNs := make([]arch.VPN, 2*arch.DefaultHTABGroups*arch.PTEGSize)
	for i := range randVPNs {
		randVPNs[i] = arch.VPNOf(arch.VSID(r.Intn(arch.VSIDMask)+1), arch.EffectiveAddr(r.Intn(1<<16)*arch.PageSize))
	}
	live := func(arch.VSID) bool { return false }
	dead := func(arch.VSID) bool { return true }
	var h *ppc.HTAB
	out["ppc.htab_insert_ns"] = probeNs(func() {
		h = ppc.NewHTAB(arch.DefaultHTABGroups, htabBase)
	}, func() int {
		for i, v := range randVPNs {
			h.Insert(v, arch.PFN(i), false, k604.M, live)
		}
		return len(randVPNs)
	})
	out["ppc.htab_reclaim_ns_per_pte"] = probeNs(func() {
		h = ppc.NewHTAB(arch.DefaultHTABGroups, htabBase)
		for i, v := range randVPNs[:len(randVPNs)/2] {
			h.Insert(v, arch.PFN(i), false, k604.M, live)
		}
	}, func() int {
		_, n := h.ReclaimScan(0, h.Groups(), k604.M, dead)
		return n
	})

	// pagetable: a two-level tree holding probeRegion scattered pages.
	eas := make([]arch.EffectiveAddr, probeRegion)
	for i := range eas {
		eas[i] = arch.EffectiveAddr(0x1000_0000 + r.Intn(1<<16)*arch.PageSize)
	}
	var t *pagetable.Table
	newTable := func() {
		if t != nil {
			t.Destroy()
		}
		var err error
		if t, err = pagetable.New(k603.M.Mem); err != nil {
			panic(fmt.Sprintf("probe: %v", err))
		}
	}
	mapAll := func() int {
		for i, ea := range eas {
			if err := t.Map(ea, arch.PFN(i+1), false); err != nil {
				panic(fmt.Sprintf("probe: %v", err))
			}
		}
		return len(eas)
	}
	out["pagetable.map_ns"] = probeNs(newTable, mapAll)
	out["pagetable.walk_ns"] = probeNs(nop, func() int {
		for _, ea := range eas {
			t.Walk(ea)
		}
		return len(eas)
	})
	t.Destroy()
	return out
}

// traceOverhead times the same seeded LmBench round with the event
// tracer and phase ledger on and off, and returns on/off: the cost of
// the simulator's own event path on that suite.
func traceOverhead(seed int64) float64 {
	var on, off []float64
	for r := 0; r < 5; r++ {
		for _, tr := range []bool{true, false} {
			p := newLmbenchPass(seed, nil, tr)
			t := time.Now()
			p.op(0, nil)
			d := time.Since(t).Seconds()
			if tr {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return ratio(median(on), median(off))
}

// registryRun is the outcome of one pass over the experiment registry.
type registryRun struct {
	metrics   map[string]float64
	attempted int
	failures  map[string]int
}

// runRegistry runs every registry experiment at quick scale on
// GOMAXPROCS workers, as mmureport -all does, and checks each
// experiment's rendered table against the counter checksum committed in
// BENCH_harness.json.
func runRegistry(sp *spans) registryRun {
	rr := registryRun{metrics: map[string]float64{}, failures: map[string]int{}}
	want, err := committedChecksums(filepath.Join(repoRoot(), "BENCH_harness.json"))
	if err != nil {
		rr.attempted, rr.failures["registry: "+err.Error()] = 1, 1
		return rr
	}
	j := runtime.GOMAXPROCS(0)
	report.SetParallelism(j)
	t := time.Now()
	rs := report.RunAll(context.Background(), report.Quick, j)
	wall := time.Since(t)
	var busy time.Duration
	for _, r := range rs {
		id := r.Experiment.ID
		rr.attempted++
		rr.metrics["report.exp_ms."+id] = float64(r.Wall.Nanoseconds()) / 1e6
		busy += r.Wall
		if r.FailReason != "" {
			rr.failures["registry-"+r.FailReason]++
			continue
		}
		sp.begin("report.render_ms")
		out := r.Table.Render()
		sp.end()
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:8]); got != want[id] {
			rr.failures["registry-checksum"]++
		}
	}
	rr.metrics["workpool.busy_ratio"] = busy.Seconds() / (wall.Seconds() * float64(j))
	return rr
}

// committedChecksums reads the per-experiment counter checksums from a
// committed harness benchmark file.
func committedChecksums(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Experiments []struct {
			ID       string `json:"id"`
			Checksum string `json:"counter_checksum"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want := map[string]string{}
	for _, e := range doc.Experiments {
		want[e.ID] = e.Checksum
	}
	return want, nil
}
