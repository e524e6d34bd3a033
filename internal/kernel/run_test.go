package kernel

import (
	"fmt"
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/machine"
	"mmutricks/internal/mmtrace"
)

// The batched reference pipeline's contract is exact equivalence: a Run
// must leave every observable — hwmon counters, cycle ledger, cache
// statistics, TLB contents — in precisely the state the scalar loop
// would. These tests drive two identically booted kernels, one through
// AccessRun and one through the scalar access loop, and compare the
// full observable state after every step.

// scalarRun replays r reference-for-reference through the scalar access
// path — the ground truth the batched pipeline must reproduce.
func scalarRun(k *Kernel, t *Task, r Run) {
	for i := 0; i < r.Count; i++ {
		k.access(t, r.EA+arch.EffectiveAddr(i*r.Stride), r.Instr, r.Class, r.Writes.Write(i))
	}
}

// scalarTouch is UserTouch spelled out reference by reference: one
// access per line, every fourth a store.
func scalarTouch(k *Kernel, t *Task, ea arch.EffectiveAddr, nbytes int) {
	line := k.M.LineSize()
	for i := 0; i < (nbytes+line-1)/line; i++ {
		k.access(t, ea+arch.EffectiveAddr(i*line), false, cache.ClassUser, i%4 == 3)
	}
}

// runObs is the complete observable state the equivalence proof
// compares. Anything the harness can render derives from these. The
// caches are compared in place, line by line, so an observation is
// only valid until either twin runs again.
type runObs struct {
	Mon     hwmon.Counters
	Cycles  clock.Cycles
	DStats  cache.Stats
	IStats  cache.Stats
	DTLB    map[arch.VPN]arch.PFN
	ITLB    map[arch.VPN]arch.PFN
	Gen     uint64
	DCache  *cache.Cache
	ICache  *cache.Cache
	L2      *cache.Cache
	Trace   []mmtrace.Event
	Emitted uint64
}

func observeRun(k *Kernel) runObs {
	return runObs{
		Mon:     k.M.Mon.Snapshot(),
		Cycles:  k.M.Led.Now(),
		DStats:  *k.M.DCache.Stats(),
		IStats:  *k.M.ICache.Stats(),
		DTLB:    k.M.MMU.TLB.Snapshot(),
		ITLB:    k.M.MMU.ITLB.Snapshot(),
		Gen:     k.M.MMU.Gen(),
		DCache:  k.M.DCache,
		ICache:  k.M.ICache,
		L2:      k.M.L2,
		Trace:   k.M.Trc.Events(),
		Emitted: k.M.Trc.Emitted(),
	}
}

// divergence describes the first observable on which the batched twin
// b and the scalar twin s differ, or returns "" when they agree.
func divergence(b, s runObs) string {
	bv, sv := reflect.ValueOf(b), reflect.ValueOf(s)
	for i := 0; i < bv.NumField(); i++ {
		bf, sf := bv.Field(i).Interface(), sv.Field(i).Interface()
		if reflect.DeepEqual(bf, sf) {
			continue
		}
		switch name := bv.Type().Field(i).Name; name {
		case "DCache", "ICache", "L2", "Trace":
			return name + " diverges"
		default:
			return fmt.Sprintf("%s diverges\nbatched %+v\nscalar  %+v", name, bf, sf)
		}
	}
	return ""
}

// twinEnv is one machine configuration both twins are built in; the
// batched pipeline must match scalar execution under every one.
type twinEnv struct {
	name   string
	model  clock.CPUModel
	cfg    Config
	l2     bool // a 256 KB board cache behind the L1s
	trace  bool // the event tracer recording
	locked bool // the data-cache lock engaged (§10.1)
	inject bool // an armed fault injector attached
	// scalar attaches a fault injector that is never armed: it injects
	// nothing, but its presence sends every batched path down the
	// scalar one, which makes the twin a scalar reference for whole
	// syscalls.
	scalar bool
}

// boot builds one twin: a kernel with one current task that has a
// signal handler installed, so protection faults have somewhere to go.
func (e twinEnv) boot(t *testing.T) (*Kernel, *Task) {
	t.Helper()
	model := e.model
	if e.l2 {
		model.L2Size, model.L2Latency = 256<<10, 9
	}
	var opts machine.Options
	if e.inject || e.scalar {
		sched := faultinject.DefaultSchedule(7)
		sched.RatePPM = 20000
		opts.Injector = faultinject.New(sched)
	}
	k := New(machine.NewWithOptions(model, opts), e.cfg)
	task := k.Spawn(k.LoadImage("test", 8))
	k.SysSignal(0, 40)
	if e.trace {
		k.M.Trc.Enable()
	}
	if e.locked {
		k.M.SetCacheLock(true)
	}
	if e.inject {
		opts.Injector.Arm()
	} else {
		t.Cleanup(func() {
			if err := k.CheckConsistency(); err != nil {
				t.Errorf("end-of-test consistency sweep: %v", err)
			}
		})
	}
	return k, task
}

// twinEnvs is the configuration matrix for the pattern tests: both
// CPUs, tracer on and off, an L2, a locked cache and an injector. All
// but the injector machine fork copy-on-write, so forked pages exercise
// the COW fallback. The injector machine forks eagerly: machine-check
// escalation that kills a COW-forked task panics in releaseCOW on
// either path (an open kernel defect, see ROADMAP.md), and under an
// injector both twins run the scalar loop anyway.
func twinEnvs() []twinEnv {
	cowOpt, cowUnopt := Optimized(), Unoptimized()
	cowOpt.COWFork, cowUnopt.COWFork = true, true
	m603, m604 := clock.PPC603At180(), clock.PPC604At185()
	return []twinEnv{
		{name: "603/unoptimized", model: m603, cfg: cowUnopt},
		{name: "603/optimized/traced", model: m603, cfg: cowOpt, trace: true},
		{name: "604/optimized", model: m604, cfg: cowOpt},
		{name: "604/unoptimized/traced", model: m604, cfg: cowUnopt, trace: true},
		{name: "604/l2", model: m604, cfg: cowOpt, l2: true},
		{name: "604/l2/traced", model: m604, cfg: cowOpt, l2: true, trace: true},
		{name: "604/locked", model: m604, cfg: cowOpt, locked: true},
		{name: "604/locked/traced", model: m604, cfg: cowOpt, locked: true, trace: true},
		{name: "603/injector", model: m603, cfg: Optimized(), inject: true},
	}
}

// touchRange is a UserTouch argument pair.
type touchRange struct {
	ea     arch.EffectiveAddr
	nbytes int
}

// runStep is one step of a differential script, applied identically to
// both twins: a batch of references (batched on one twin, scalar on the
// other), a UserTouch (likewise), and/or an event such as a
// translation invalidation, fork or mprotect.
type runStep struct {
	name  string
	run   *Run
	touch *touchRange
	op    func(k *Kernel, t *Task)
}

func diffRun(t *testing.T, env twinEnv, steps []runStep) {
	t.Helper()
	kb, tb := env.boot(t)
	ks, ts := env.boot(t)
	if d := divergence(observeRun(kb), observeRun(ks)); d != "" {
		t.Fatalf("twins diverge before the script runs: %s", d)
	}
	for _, st := range steps {
		if st.run != nil {
			kb.AccessRun(tb, *st.run)
			scalarRun(ks, ts, *st.run)
		}
		if st.touch != nil {
			kb.UserTouch(st.touch.ea, st.touch.nbytes)
			scalarTouch(ks, ts, st.touch.ea, st.touch.nbytes)
		}
		if st.op != nil {
			st.op(kb, tb)
			st.op(ks, ts)
		}
		if d := divergence(observeRun(kb), observeRun(ks)); d != "" {
			t.Fatalf("%s: batched and scalar state diverge: %s", st.name, d)
		}
	}
}

func TestAccessRunMatchesScalar(t *testing.T) {
	line := 32
	steps := []runStep{
		{name: "cold user stream, word stride", run: &Run{EA: UserDataBase, Count: 3000, Stride: 4, Class: cache.ClassUser}},
		{name: "warm re-walk", run: &Run{EA: UserDataBase, Count: 3000, Stride: 4, Class: cache.ClassUser}},
		{name: "write stream, line stride", run: &Run{EA: UserDataBase, Count: 600, Stride: line, Class: cache.ClassUser, Writes: cache.AllWrites}},
		{name: "castout pressure, page-crossing", run: &Run{EA: UserDataBase + 0x8000, Count: 4096, Stride: line, Class: cache.ClassUser, Writes: cache.AllWrites}},
		{name: "single reference", run: &Run{EA: UserDataBase + 12, Count: 1, Stride: 4, Class: cache.ClassUser}},
		{name: "two-line stride", run: &Run{EA: UserDataBase, Count: 300, Stride: 2 * line, Class: cache.ClassUser}},
		{name: "unaligned sub-line stride", run: &Run{EA: UserDataBase + 6, Count: 2000, Stride: 12, Class: cache.ClassUser}},
		{name: "instruction fetch stream", run: &Run{EA: UserTextBase, Count: 500, Stride: line, Class: cache.ClassUser, Instr: true}},
		{name: "tlb flush then re-walk",
			op: func(k *Kernel, _ *Task) { k.M.MMU.InvalidateTLBs() }},
		{name: "stream after flush must re-translate", run: &Run{EA: UserDataBase, Count: 2000, Stride: 4, Class: cache.ClassUser}},
		{name: "segment reload then re-walk",
			op: func(k *Kernel, _ *Task) {
				k.M.MMU.SetSegment(int(UserDataBase>>28), k.M.MMU.Segment(int(UserDataBase>>28)))
			}},
		{name: "stream after segment reload", run: &Run{EA: UserDataBase, Count: 1000, Stride: 4, Class: cache.ClassUser}},
		{name: "single-vpn invalidate",
			op: func(k *Kernel, _ *Task) { k.M.MMU.InvalidateVPNAll(k.M.MMU.VPNFor(UserDataBase)) }},
		{name: "stream after vpn invalidate", run: &Run{EA: UserDataBase, Count: 64, Stride: 4, Class: cache.ClassUser}},
	}
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		for _, cfg := range []struct {
			name string
			cfg  Config
		}{{"unoptimized", Unoptimized()}, {"optimized", Optimized()}} {
			t.Run(model.Name+"/"+cfg.name, func(t *testing.T) {
				diffRun(t, twinEnv{model: model, cfg: cfg.cfg}, steps)
			})
		}
	}
}

// Write patterns through the run pipeline: page splits rotate the
// pattern, and a streak that stores to a COW or write-protected page
// runs scalar while the task's other streaks stay batched. Every step
// must leave the twins identical under every machine configuration.
func TestAccessRunPatternsMatchScalar(t *testing.T) {
	line := 32
	page := func(i int) arch.EffectiveAddr { return UserDataBase + arch.EffectiveAddr(i*arch.PageSize) }
	steps := []runStep{
		{name: "fault six pages in", run: &Run{EA: page(0), Count: 6 * arch.PageSize / line, Stride: line, Class: cache.ClassUser, Writes: cache.AllWrites}},
		{name: "every fourth write, unaligned, page-straddling", run: &Run{EA: page(0) + 0xF0A, Count: 500, Stride: line, Class: cache.ClassUser, Writes: cache.EveryFourthWrite}},
		{name: "odd pattern, sub-line stride", run: &Run{EA: page(1) + 6, Count: 3000, Stride: 12, Class: cache.ClassUser, Writes: 0x5}},
		{name: "odd pattern, wide stride", run: &Run{EA: page(2) + 20, Count: 90, Stride: 3 * line, Class: cache.ClassUser, Writes: 0x6}},
		{name: "fork: every private page goes COW",
			op: func(k *Kernel, _ *Task) { k.Fork() }},
		{name: "loads over COW pages stay batched", run: &Run{EA: page(3), Count: 2 * arch.PageSize / line, Stride: line, Class: cache.ClassUser}},
		{name: "pattern breaks COW on pages 0-2", run: &Run{EA: page(0) + 0x10, Count: 300, Stride: line, Class: cache.ClassUser, Writes: cache.EveryFourthWrite}},
		{name: "pattern over broken pages 1-2 and COW page 3", run: &Run{EA: page(1) + 0x44, Count: 270, Stride: line, Class: cache.ClassUser, Writes: 0x2}},
		{name: "write-protect page 4",
			op: func(k *Kernel, _ *Task) { k.SysMprotect(page(4), 1, true) }},
		{name: "pattern across page 3 and protected page 4", run: &Run{EA: page(3) + 0x800, Count: 160, Stride: line, Class: cache.ClassUser, Writes: cache.EveryFourthWrite}},
		{name: "loads over the protected page", run: &Run{EA: page(4), Count: 128, Stride: line, Class: cache.ClassUser}},
		{name: "touch across protected page 4 and COW page 5", touch: &touchRange{page(4) + 0x400, 5000}},
		{name: "unprotect page 4",
			op: func(k *Kernel, _ *Task) { k.SysMprotect(page(4), 1, false) }},
		{name: "all writes after unprotect", run: &Run{EA: page(4), Count: 256, Stride: line, Class: cache.ClassUser, Writes: cache.AllWrites}},
		{name: "tlb flush then pattern re-walk",
			op: func(k *Kernel, _ *Task) { k.M.MMU.InvalidateTLBs() }},
		{name: "pattern after flush", run: &Run{EA: page(0) + 4, Count: 1000, Stride: 24, Class: cache.ClassUser, Writes: 0x9}},
	}
	for _, env := range twinEnvs() {
		t.Run(env.name, func(t *testing.T) { diffRun(t, env, steps) })
	}
}

// UserTouch is one EveryFourthWrite run; over any range it must leave
// the machine exactly as the per-line scalar loop does — hwmon, cache
// statistics and line state, ledger cycles and the event ring.
func TestUserTouchMatchesScalar(t *testing.T) {
	page := func(i int) arch.EffectiveAddr { return UserDataBase + arch.EffectiveAddr(i*arch.PageSize) }
	steps := []runStep{
		{name: "cold, four whole pages", touch: &touchRange{page(0), 4 * arch.PageSize}},
		{name: "warm, same pages", touch: &touchRange{page(0), 4 * arch.PageSize}},
		{name: "unaligned start, odd length, straddling", touch: &touchRange{page(3) + 0xFF3, 3*arch.PageSize + 77}},
		{name: "sub-line", touch: &touchRange{page(1) + 5, 7}},
		{name: "eight fresh pages", touch: &touchRange{page(16), 8 * arch.PageSize}},
		{name: "fork: pages go COW",
			op: func(k *Kernel, _ *Task) { k.Fork() }},
		{name: "touch breaks COW mid-range", touch: &touchRange{page(2) + 0x300, 2 * arch.PageSize}},
		{name: "write-protect page 18",
			op: func(k *Kernel, _ *Task) { k.SysMprotect(page(18), 1, true) }},
		{name: "touch across protected and COW pages", touch: &touchRange{page(17), 3 * arch.PageSize}},
		{name: "stack page", touch: &touchRange{UserStackTop - 3*arch.PageSize + 0x10, 2 * arch.PageSize}},
	}
	for _, env := range twinEnvs() {
		t.Run(env.name, func(t *testing.T) { diffRun(t, env, steps) })
	}
}

// The copy syscalls choose the scalar or the batched path per page
// streak: a streak that stores to a COW or write-protected page runs
// scalar, the rest stay batched. A forked task's pipe reads, UserZero
// and UserCopy over COW and write-protected pages must leave the
// machine exactly as a twin whose every path is scalar.
func TestCopySyscallsMatchScalar(t *testing.T) {
	page := func(i int) arch.EffectiveAddr { return UserDataBase + arch.EffectiveAddr(i*arch.PageSize) }
	pipes := map[*Kernel]*Pipe{}
	fill := func(k *Kernel, _ *Task) { k.SysPipeWrite(pipes[k], page(0)+0x24, 3000) }
	read := func(dst arch.EffectiveAddr, n int) func(*Kernel, *Task) {
		return func(k *Kernel, _ *Task) { k.SysPipeRead(pipes[k], dst, n) }
	}
	zero := func(ea arch.EffectiveAddr, n int, dcbz bool) func(*Kernel, *Task) {
		return func(k *Kernel, _ *Task) { k.UserZero(ea, n, dcbz) }
	}
	copyTo := func(dst, src arch.EffectiveAddr, n int) func(*Kernel, *Task) {
		return func(k *Kernel, _ *Task) { k.UserCopy(dst, src, n) }
	}
	steps := []runStep{
		{name: "fault eight pages in", touch: &touchRange{page(0), 8 * arch.PageSize}},
		{name: "open a pipe and fill it",
			op: func(k *Kernel, tk *Task) { pipes[k] = k.SysPipe(); fill(k, tk) }},
		{name: "fork: every private page goes COW",
			op: func(k *Kernel, _ *Task) { k.Fork() }},
		{name: "pipe read across COW pages 1-2", op: read(page(1)+0xF00, 2000)},
		{name: "stores zero COW pages 2-4", op: zero(page(2)+0x100, 2*arch.PageSize, false)},
		{name: "dcbz across COW pages 4-5", op: zero(page(4)+0x80, 6000, true)},
		{name: "write-protect page 6",
			op: func(k *Kernel, _ *Task) { k.SysMprotect(page(6), 1, true) }},
		{name: "copy onto COW page 5 and protected page 6", op: copyTo(page(5)+0x800, page(0)+0x40, 5000)},
		{name: "refill the pipe", op: fill},
		{name: "pipe read across protected page 6 and COW page 7", op: read(page(6)+0xE00, 1500)},
		{name: "stores zero the protected page", op: zero(page(6), arch.PageSize, false)},
		{name: "copy over broken pages", op: copyTo(page(1), page(3)+0x10, 3*arch.PageSize)},
		{name: "refill the pipe again", op: fill},
		{name: "pipe read into broken pages", op: read(page(2)+0x10, 2500)},
	}
	for _, env := range twinEnvs() {
		if env.inject {
			continue
		}
		t.Run(env.name, func(t *testing.T) {
			kb, tb := env.boot(t)
			scalar := env
			scalar.scalar = true
			ks, ts := scalar.boot(t)
			for _, st := range steps {
				if st.touch != nil {
					kb.UserTouch(st.touch.ea, st.touch.nbytes)
					ks.UserTouch(st.touch.ea, st.touch.nbytes)
				}
				if st.op != nil {
					st.op(kb, tb)
					st.op(ks, ts)
				}
				if d := divergence(observeRun(kb), observeRun(ks)); d != "" {
					t.Fatalf("%s: batched and scalar state diverge: %s", st.name, d)
				}
			}
		})
	}
}

// A context switch reloads segment registers, which advances the
// translation generation; a batched kernel that kept honoring the old
// task's cached translation would charge the wrong stream. The switch
// itself runs scheduler code, so the twins run it identically and the
// comparison covers the whole sequence.
func TestAccessRunAcrossContextSwitch(t *testing.T) {
	kb, tb := bootTask(t, clock.PPC604At185(), Unoptimized())
	ks, ts := bootTask(t, clock.PPC604At185(), Unoptimized())
	tb2 := kb.Spawn(kb.LoadImage("other", 8))
	ts2 := ks.Spawn(ks.LoadImage("other", 8))

	r := Run{EA: UserDataBase, Count: 2000, Stride: 4, Class: cache.ClassUser, Writes: cache.AllWrites}
	kb.AccessRun(tb, r)
	scalarRun(ks, ts, r)

	kb.Switch(tb2)
	ks.Switch(ts2)
	kb.AccessRun(tb2, r)
	scalarRun(ks, ts2, r)

	kb.Switch(tb)
	ks.Switch(ts)
	kb.AccessRun(tb, r)
	scalarRun(ks, ts, r)

	if d := divergence(observeRun(kb), observeRun(ks)); d != "" {
		t.Fatalf("batched and scalar state diverge across context switches: %s", d)
	}
}

// Once a page is resident the whole batched pipeline — fastpath
// translation, hit replay, batch cache simulation — must run without
// allocating: it executes under the noalloc proof and inside every
// harness inner loop.
func TestAccessRunZeroAllocsWhenResident(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	r := Run{EA: UserDataBase, Count: 1024, Stride: 4, Class: cache.ClassUser, Writes: cache.AllWrites}
	k.AccessRun(task, r) // fault the pages in
	if n := testing.AllocsPerRun(100, func() {
		k.AccessRun(task, r)
	}); n != 0 {
		t.Fatalf("resident AccessRun allocates %.1f times per op, want 0", n)
	}
}

// UserTouch over resident pages is one batched run per page and must
// not allocate either.
func TestUserTouchZeroAllocsWhenResident(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Optimized())
	k.UserTouch(UserDataBase+8, 4*arch.PageSize) // fault the pages in
	if n := testing.AllocsPerRun(100, func() {
		k.UserTouch(UserDataBase+8, 4*arch.PageSize)
	}); n != 0 {
		t.Fatalf("resident UserTouch allocates %.1f times per op, want 0", n)
	}
}

// FuzzAccessRunParity feeds arbitrary scripts of runs, touches and
// events to the batched/scalar twins. The first byte picks the machine
// (CPU, tracer, L2, locked cache, injector); the rest is the script.
// Any reachable combination of stride, width, write pattern and phase,
// page crossing, flushes, forks (COW pages) and write protection in
// which the batched pipeline deviates from scalar execution is a bug.
func FuzzAccessRunParity(f *testing.F) {
	f.Add([]byte{0, 10, 2, 1, 40, 1, 3, 0, 4})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 255, 31, 0, 5})
	f.Add([]byte{4, 9, 9, 9, 3, 3, 3})
	f.Add([]byte{1, 0, 3, 20, 32, 8, 6, 0, 5, 40, 32, 8, 7, 2, 1, 8, 60, 90, 1, 63, 33, 24, 6})
	f.Add([]byte{19, 8, 1, 200, 6, 7, 1, 1, 0, 0, 255, 31, 15, 8, 62, 200})
	f.Fuzz(func(t *testing.T, script []byte) {
		i := 0
		next := func() int {
			if i >= len(script) {
				return 0
			}
			v := int(script[i])
			i++
			return v
		}
		flags := next()
		cfg := Unoptimized()
		// COW fork, except under the injector (see twinEnvs).
		cfg.COWFork = flags&8 == 0
		env := twinEnv{model: clock.PPC604At185(), cfg: cfg,
			trace: flags&1 != 0, l2: flags&2 != 0, locked: flags&4 != 0, inject: flags&8 != 0}
		if flags&16 != 0 {
			env.model = clock.PPC603At180()
		}
		kb, tb := env.boot(t)
		ks, ts := env.boot(t)
		both := func(op func(k *Kernel, t *Task)) {
			op(kb, tb)
			op(ks, ts)
		}
		for steps := 0; i < len(script) && steps < 64; steps++ {
			switch next() % 9 {
			case 0, 1: // data run (the common case gets more weight)
				r := Run{
					EA:     UserDataBase + arch.EffectiveAddr(next()*64),
					Count:  next()*16 + 1,
					Stride: next()%128 + 1,
					Class:  cache.ClassUser,
					Writes: cache.WritePattern(next()) & cache.AllWrites,
				}
				kb.AccessRun(tb, r)
				scalarRun(ks, ts, r)
			case 2: // instruction run
				r := Run{
					EA:     UserTextBase + arch.EffectiveAddr(next()*32),
					Count:  next()%256 + 1,
					Stride: next()%64 + 1,
					Class:  cache.ClassUser,
					Instr:  true,
				}
				kb.AccessRun(tb, r)
				scalarRun(ks, ts, r)
			case 3:
				both(func(k *Kernel, _ *Task) { k.M.MMU.InvalidateTLBs() })
			case 4:
				vpn := kb.M.MMU.VPNFor(UserDataBase + arch.EffectiveAddr(next()*4096))
				both(func(k *Kernel, _ *Task) { k.M.MMU.InvalidateVPNAll(vpn) })
			case 5:
				seg := int(UserDataBase >> 28)
				both(func(k *Kernel, _ *Task) { k.M.MMU.SetSegment(seg, k.M.MMU.Segment(seg)) })
			case 6: // fork: the task's private pages go COW
				both(func(k *Kernel, _ *Task) { k.Fork() })
			case 7: // write-protect or unprotect one page
				ea := UserDataBase + arch.EffectiveAddr(next()%16*arch.PageSize)
				ro := next()%2 == 1
				both(func(k *Kernel, _ *Task) { k.SysMprotect(ea, 1, ro) })
			case 8: // user touch, any alignment and length
				ea := UserDataBase + arch.EffectiveAddr(next()*60)
				nbytes := next()*40 + 1
				kb.UserTouch(ea, nbytes)
				scalarTouch(ks, ts, ea, nbytes)
			}
			if d := divergence(observeRun(kb), observeRun(ks)); d != "" {
				t.Fatalf("step %d: batched and scalar state diverge: %s", steps, d)
			}
		}
	})
}
