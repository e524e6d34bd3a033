package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/trace"
)

// workloads are the benchmark's input sets. Each stresses a different
// layer, so that a change aimed at one layer shows up on one workload
// and leaves another unmoved:
//
//   - kbuild runs the paper's macro benchmark (§4). Page clear and copy
//     write runs through the cache model dominate its host time, while
//     the TLB is barely stressed: it shows a cache-model change and
//     barely touches translation.
//   - scatter issues seeded reference streams over regions far beyond
//     TLB reach on a 603 and a 604. Translation does the work: hardware
//     hash-table walks, hash-miss faults, software reloads through the
//     page-table tree, context flushes and idle reclaim. The cache sees
//     single-line reads, the counterpart of kbuild's write runs.
//   - lmbench-traced runs the LmBench suite with the event tracer and
//     the phase ledger on: the syscall, switch, pipe and signal paths
//     run, and the event path does real work.
//
// The experiment registry (report, workpool) is not a workload: the
// benchmark cannot reach its machines' caches, so host_ns_per_ref is
// undefined there. Traced runs time it as a probe instead (probes.go).
var workloads = []workload{
	{
		name:  "kbuild",
		setup: setupKbuild,
	},
	{
		name:  "scatter",
		setup: setupScatter,
	},
	{
		name:  "lmbench-traced",
		setup: setupLmbench,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// ---------------------------------------------------------------------
// kbuild: one operation is one kbuild.Run on a freshly booted 604/185
// running the optimized kernel.
// ---------------------------------------------------------------------

// kbuildUnits is the compilation units of each compile; a pass runs
// one compile per footprint in kbuildDeltas, 25 units in all.
const kbuildUnits = 5

// kbuildDeltas are the working-set footprints of a pass's compiles,
// in pages around kbuild.Default()'s 160. An odd count puts the median
// operation inside one footprint's cluster of times rather than in the
// gap between two, and the top cluster spans the 80th to 100th
// percentiles, so p50 and p90 are both steady.
var kbuildDeltas = []int{-32, -16, 0, 16, 32}

// kbuildPlan draws the pass's compile configurations. The seed picks
// each compile's Config.Seed and the order of the footprints; the
// footprints themselves are fixed, so every seed does the same amount
// of work and seeds differ in the order and in the reference streams.
func kbuildPlan(seed int64) []kbuild.Config {
	r := rand.New(rand.NewSource(seed))
	deltas := append([]int(nil), kbuildDeltas...)
	r.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
	cfgs := make([]kbuild.Config, len(deltas))
	for i := range cfgs {
		c := kbuild.Default()
		c.Units = kbuildUnits
		c.WorkPages += deltas[i]
		c.SourcePages += deltas[i] / 8
		c.Seed = r.Int63()
		cfgs[i] = c
	}
	return cfgs
}

type kbuildPass struct {
	ks   fleet
	cfgs []kbuild.Config
	res  []kbuild.Result
}

func setupKbuild(seed int64, sp *spans) pass {
	p := &kbuildPass{cfgs: kbuildPlan(seed)}
	p.res = make([]kbuild.Result, len(p.cfgs))
	for range p.cfgs {
		p.ks = append(p.ks, boot(sp, clock.PPC604At185(), false))
	}
	return p
}

func (p *kbuildPass) ops() int          { return len(p.cfgs) }
func (p *kbuildPass) counts() simCounts { return p.ks.counts() }

func (p *kbuildPass) op(i int, sp *spans) {
	sp.setOp(i)
	sp.begin("kbuild.run_ms")
	p.res[i] = kbuild.Run(p.ks[i], p.cfgs[i])
	sp.end()
}

func (p *kbuildPass) verify(i int) (string, error) {
	k, r := p.ks[i], p.res[i]
	sum := checksum(k)
	if err := k.CheckConsistency(); err != nil {
		return sum, err
	}
	if r.Cycles == 0 || r.IdleCycles >= r.Cycles || r.Counters.Forks == 0 {
		return sum, fmt.Errorf("kbuild result out of range: %d cycles, %d idle, %d forks",
			r.Cycles, r.IdleCycles, r.Counters.Forks)
	}
	return sum, nil
}

// ---------------------------------------------------------------------
// scatter: four tasks issue seeded reference streams over pre-faulted
// regions on a 603/180 and a 604/185. One operation is one quantum.
// ---------------------------------------------------------------------

const (
	scatterTasks = 4
	// scatterPages is each task's region: 4 MB, so the four regions
	// (16 MB) are far beyond either TLB's reach (512 KB on the 603,
	// 1 MB on the 604) but fit in the 32 MB of RAM and in the 16384-PTE
	// hash table.
	scatterPages = 1024
	// scatterQuanta quanta of scatterRefs references run on each CPU:
	// 400 k references per CPU per pass.
	scatterQuanta = 200
	scatterRefs   = 2000
	// Every scatterFlushEvery-th quantum ends with a whole-region
	// mprotect, which the lazy-flush kernel turns into a context flush
	// that leaves zombie PTEs, and an idle wait of scatterIdleCycles
	// in which the idle task reclaims them.
	scatterFlushEvery = 10
	scatterIdleCycles = 60_000
)

// scatterStreams generates each task's reference stream as offsets
// into its region. The seed assigns the four generators (pointer-chase,
// zipfian, working-set, strided) to the four tasks and seeds each; every
// seed runs all four generators, so the work per pass stays comparable.
func scatterStreams(seed int64) [][]uint32 {
	r := rand.New(rand.NewSource(seed))
	kinds := []int{0, 1, 2, 3}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	n := scatterQuanta / scatterTasks * scatterRefs
	streams := make([][]uint32, scatterTasks)
	for t, kind := range kinds {
		s := uint32(r.Int63())
		var g trace.Generator
		switch kind {
		case 0:
			g = trace.NewPointerChase(0, scatterPages, s)
		case 1:
			g = trace.NewZipfian(0, scatterPages, s)
		case 2:
			g = trace.NewWorkingSet(0, scatterPages, 64, 90, s)
		default:
			g = trace.NewStrided(0, scatterPages, 2*r.Intn(56)+17)
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(g.Next())
		}
		streams[t] = out
	}
	return streams
}

// scatterTask returns the task quantum q runs. Tasks rotate every
// quantum, and the rotation shifts by one every scatterFlushEvery
// quanta, so the flushing quanta visit all four tasks in turn.
func scatterTask(q int) int { return (q + q/scatterFlushEvery) % scatterTasks }

type scatterCPU struct {
	k     *kernel.Kernel
	tasks []*kernel.Task
	base  arch.EffectiveAddr
	pos   []int // next stream index per task
}

type scatterPass struct {
	cpus    [2]*scatterCPU
	streams [][]uint32
}

func setupScatter(seed int64, sp *spans) pass {
	p := &scatterPass{streams: scatterStreams(seed)}
	for i, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		c := &scatterCPU{k: boot(sp, model, false), pos: make([]int, scatterTasks)}
		img := c.k.LoadImage("scatter", 4)
		for t := 0; t < scatterTasks; t++ {
			task := c.k.Spawn(img)
			c.tasks = append(c.tasks, task)
			c.k.Switch(task)
			sp.begin("kernel.mmap_us")
			base := c.k.SysMmap(scatterPages)
			sp.end()
			if t > 0 && base != c.base {
				panic(fmt.Sprintf("scatter: task %d mapped at %v, task 0 at %v", t, base, c.base))
			}
			c.base = base
			for pg := 0; pg < scatterPages; pg++ {
				sp.begin("kernel.touch_page_us")
				c.k.UserRef(base+arch.EffectiveAddr(pg*arch.PageSize), true)
				sp.end()
			}
		}
		p.cpus[i] = c
	}
	return p
}

func (p *scatterPass) ops() int { return 2 * scatterQuanta }

func (p *scatterPass) counts() simCounts {
	return fleet{p.cpus[0].k, p.cpus[1].k}.counts()
}

// op runs quantum i: the 603 runs quanta 0..scatterQuanta-1, then the
// 604 replays the same streams.
func (p *scatterPass) op(i int, sp *spans) {
	sp.setOp(i)
	c, q := p.cpus[i/scatterQuanta], i%scatterQuanta
	t := scatterTask(q)
	sp.begin("kernel.switch_us")
	c.k.Switch(c.tasks[t])
	sp.end()
	refs := p.streams[t][c.pos[t] : c.pos[t]+scatterRefs]
	c.pos[t] += scatterRefs
	sp.begin("kernel.ref_ns")
	for j, off := range refs {
		c.k.UserRef(c.base+arch.EffectiveAddr(off), j%4 == 3)
	}
	sp.endN(len(refs))
	if q%scatterFlushEvery == scatterFlushEvery-1 {
		sp.begin("kernel.mprotect_us")
		c.k.SysMprotect(c.base, scatterPages, false)
		sp.end()
		sp.begin("kernel.idle_us")
		c.k.RunIdleFor(scatterIdleCycles)
		sp.end()
	}
}

func (p *scatterPass) verify(i int) (string, error) {
	k := p.cpus[i/scatterQuanta].k
	return checksum(k), k.CheckConsistency()
}

// ---------------------------------------------------------------------
// lmbench-traced: the LmBench suite on a 604/185 with the event tracer
// and the phase ledger enabled. One operation is one round of the
// suite.
// ---------------------------------------------------------------------

// lmbenchFactors are the size factors each suite method runs at, one
// per round of a pass.
var lmbenchFactors = []float64{0.9, 0.95, 1, 1.05, 1.1}

// lmBench is one suite method at its base size. run scales the size by
// f (the seeded draw) and returns the method's result.
type lmBench struct {
	name string
	run  func(s *lmbench.Suite, f float64) lmbench.Result
}

// span names the method's span and per-layer metric.
func (b lmBench) span() string { return "lmbench." + b.name + "_ms" }

func scaled(n int, f float64) int { return int(math.Round(float64(n) * f)) }

var lmBenches = []lmBench{
	{"null", func(s *lmbench.Suite, f float64) lmbench.Result { return s.NullSyscall(scaled(2000, f)) }},
	{"ctxsw_2p_0k", func(s *lmbench.Suite, f float64) lmbench.Result { return s.CtxSwitch(2, 0, scaled(200, f)) }},
	{"ctxsw_8p_16k", func(s *lmbench.Suite, f float64) lmbench.Result { return s.CtxSwitch(8, 4, scaled(50, f)) }},
	{"pipe_lat", func(s *lmbench.Suite, f float64) lmbench.Result { return s.PipeLatency(scaled(200, f)) }},
	{"pipe_bw", func(s *lmbench.Suite, f float64) lmbench.Result { return s.PipeBandwidth(scaled(256, f) * 4096) }},
	{"file_reread", func(s *lmbench.Suite, f float64) lmbench.Result { return s.FileReread(64, scaled(4, f)) }},
	{"mmap", func(s *lmbench.Suite, f float64) lmbench.Result { return s.MmapLatency(1024, scaled(100, f)) }},
	{"proc_start", func(s *lmbench.Suite, f float64) lmbench.Result { return s.ProcStart(scaled(20, f)) }},
	{"signal", func(s *lmbench.Suite, f float64) lmbench.Result { return s.SignalLatency(scaled(400, f)) }},
	{"prot_fault", func(s *lmbench.Suite, f float64) lmbench.Result { return s.ProtFaultLatency(scaled(400, f)) }},
}

// lmStep is one suite method call of a round.
type lmStep struct {
	bench int
	f     float64
}

// lmbenchPlan draws the rounds: the seed shuffles each round's order
// and which round runs each method at which size factor. Across a pass
// every method runs each factor once, so every seed does the same
// amount of work.
func lmbenchPlan(seed int64) [][]lmStep {
	r := rand.New(rand.NewSource(seed))
	rounds := make([][]lmStep, len(lmbenchFactors))
	factors := make([][]float64, len(lmBenches))
	for b := range lmBenches {
		fs := append([]float64(nil), lmbenchFactors...)
		r.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		factors[b] = fs
	}
	for i := range rounds {
		order := r.Perm(len(lmBenches))
		for _, b := range order {
			rounds[i] = append(rounds[i], lmStep{bench: b, f: factors[b][i]})
		}
	}
	return rounds
}

type lmbenchPass struct {
	k      *kernel.Kernel
	suite  *lmbench.Suite
	rounds [][]lmStep
	res    [][]lmbench.Result
}

func setupLmbench(seed int64, sp *spans) pass { return newLmbenchPass(seed, sp, true) }

// newLmbenchPass boots the suite's kernel; trace turns the simulator's
// event tracer and phase ledger on.
func newLmbenchPass(seed int64, sp *spans, trace bool) *lmbenchPass {
	k := boot(sp, clock.PPC604At185(), trace)
	rounds := lmbenchPlan(seed)
	return &lmbenchPass{k: k, suite: lmbench.New(k), rounds: rounds, res: make([][]lmbench.Result, len(rounds))}
}

func (p *lmbenchPass) ops() int          { return len(p.rounds) }
func (p *lmbenchPass) counts() simCounts { return fleet{p.k}.counts() }

func (p *lmbenchPass) op(i int, sp *spans) {
	sp.setOp(i)
	p.res[i] = p.res[i][:0]
	for _, st := range p.rounds[i] {
		b := lmBenches[st.bench]
		if sp != nil {
			sp.begin(b.span())
		}
		p.res[i] = append(p.res[i], b.run(p.suite, st.f))
		sp.end()
	}
}

func (p *lmbenchPass) verify(i int) (string, error) {
	sum := checksum(p.k) + fmt.Sprintf("/%d", p.k.M.Trc.Emitted())
	if err := p.k.CheckConsistency(); err != nil {
		return sum, err
	}
	if p.k.M.Ph.Enabled() {
		if err := p.k.M.Ph.CheckConservation(); err != nil {
			return sum, err
		}
	}
	if len(p.res[i]) != len(p.rounds[i]) {
		return sum, fmt.Errorf("round %d returned %d results, want %d", i, len(p.res[i]), len(p.rounds[i]))
	}
	for _, r := range p.res[i] {
		v := r.Micros + r.MBps
		if r.Cycles == 0 || !(v > 0) || math.IsInf(v, 0) {
			return sum, fmt.Errorf("lmbench %s out of range: %v", r.Name, r)
		}
	}
	return sum, nil
}
