package machine

import (
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
)

// The hash table batches its slot touches through MemAccessRun when its
// bus provides this method; a signature drift would silently send it
// back to its scalar loop.
var _ interface {
	MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited bool, w cache.WritePattern)
} = (*Machine)(nil)

// MemAccessRun must be exactly the scalar MemAccess loop with
// reference i a store iff w.Write(i): same cycles, counters, cache
// lines (L1 and L2) and trace events, under every machine
// configuration. The runs are long enough to be chunked, so the write
// pattern has to be rotated across chunk boundaries.
func TestMemAccessRunMatchesScalar(t *testing.T) {
	type run struct {
		pa        arch.PhysAddr
		n, stride int
		w         cache.WritePattern
	}
	runs := []run{
		{0x100000, 3000, 4, cache.EveryFourthWrite},
		{0x100006, 2500, 12, 0x5},
		{0x200000, 128, 32, cache.AllWrites},
		{0x100000, 3000, 4, 0x6},
		{0x180010, 700, 32, cache.EveryFourthWrite},
		{0x300000, 600, 96, cache.NoWrites},
		{0x100002, 3001, 5, 0x9},
	}
	envs := []struct {
		name                  string
		l2, trace, locked, mc bool
	}{
		{name: "plain"},
		{name: "traced", trace: true},
		{name: "l2", l2: true},
		{name: "l2/traced", l2: true, trace: true},
		{name: "locked", locked: true},
		{name: "locked/traced", locked: true, trace: true},
		{name: "injector", mc: true},
	}
	for _, env := range envs {
		t.Run(env.name, func(t *testing.T) {
			boot := func() *Machine {
				model := clock.PPC604At185()
				if env.l2 {
					model.L2Size, model.L2Latency = 256<<10, 9
				}
				var opts Options
				if env.mc {
					sched := faultinject.DefaultSchedule(3)
					sched.RatePPM = 20000
					opts.Injector = faultinject.New(sched)
					opts.Injector.Arm()
				}
				m := NewWithOptions(model, opts)
				if env.trace {
					m.Trc.Enable()
				}
				m.SetCacheLock(env.locked)
				// Warm the caches so runs hit, miss and cast out.
				for i := 0; i < 2048; i++ {
					m.MemAccess(0x100000+arch.PhysAddr(i*32), cache.ClassKernelData, false, i%3 == 0)
				}
				return m
			}
			mb, ms := boot(), boot()
			for i, r := range runs {
				mb.MemAccessRun(r.pa, r.n, r.stride, cache.ClassUser, false, r.w)
				for j := 0; j < r.n; j++ {
					ms.MemAccess(r.pa+arch.PhysAddr(j*r.stride), cache.ClassUser, false, r.w.Write(j))
				}
				if mb.Led.Now() != ms.Led.Now() {
					t.Fatalf("run %d: cycles diverge: batched %d, scalar %d", i, mb.Led.Now(), ms.Led.Now())
				}
				if *mb.Mon != *ms.Mon {
					t.Fatalf("run %d: counters diverge", i)
				}
				if !reflect.DeepEqual(mb.DCache, ms.DCache) || !reflect.DeepEqual(mb.L2, ms.L2) {
					t.Fatalf("run %d: cache state diverges", i)
				}
				if !reflect.DeepEqual(mb.Trc.Events(), ms.Trc.Events()) {
					t.Fatalf("run %d: trace events diverge", i)
				}
			}
		})
	}
}
