// Package cache implements the set-associative L1 caches of the PowerPC
// 603/604 as a functional simulator with true-LRU replacement.
//
// Beyond hit/miss behaviour, the cache attributes every access, fill and
// eviction to a traffic class (user data, kernel text, page tables, the
// hash table, idle-task work, ...). Sections 8 and 9 of the paper are
// about exactly this attribution: page-table walks and idle-task page
// clearing filling the cache with lines that displace useful user data.
// Cache-inhibited accesses (the architected WIMG "I" bit) bypass the
// cache entirely, which is how the paper's uncached page-clearing and
// uncached idle-task experiments work.
package cache

import (
	"fmt"

	"mmutricks/internal/arch"
)

// Class identifies who generated a memory access, for attribution.
type Class int

const (
	// ClassUser is ordinary user-mode instruction/data traffic.
	ClassUser Class = iota
	// ClassKernelText is kernel instruction fetch.
	ClassKernelText
	// ClassKernelData is kernel data (task structs, buffers, stacks).
	ClassKernelData
	// ClassPageTable is traffic to the Linux two-level page tables.
	ClassPageTable
	// ClassHashTable is traffic to the PowerPC hashed page table.
	ClassHashTable
	// ClassIdle is work done by the idle task (page clearing, zombie
	// reclaim scans).
	ClassIdle
	// ClassIO is device/frame-buffer traffic.
	ClassIO
	numClasses
)

// Classes lists all traffic classes in order, for iteration in reports.
var Classes = []Class{ClassUser, ClassKernelText, ClassKernelData, ClassPageTable, ClassHashTable, ClassIdle, ClassIO}

func (c Class) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassKernelText:
		return "kernel-text"
	case ClassKernelData:
		return "kernel-data"
	case ClassPageTable:
		return "page-table"
	case ClassHashTable:
		return "hash-table"
	case ClassIdle:
		return "idle"
	case ClassIO:
		return "io"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// lineKeyValid marks a resident line in the packed key. Tags are line
// addresses (physical address >> lineShift), which for a 32-bit
// physical space never reach bit 31, so key==tag|lineKeyValid makes
// the hot-path probe a single compare per way: an invalid line's key
// is 0 and can never equal a wanted key.
const lineKeyValid uint32 = 1 << 31

// line is one cache line's state, packed to 16 bytes so a 4-way set
// occupies a single host cache line. An invalid line is always the
// zero line (nothing invalidates but by writing line{}), which the
// victim choice and the eviction charges rely on.
type line struct {
	key   uint32 // tag | lineKeyValid when resident; 0 when invalid
	class uint8
	dirty uint8
	_     [2]byte
	// lru is a per-set sequence number; larger = more recently used.
	lru uint64
}

// Stats aggregates per-class counters for one cache.
type Stats struct {
	Accesses  [numClasses]uint64
	Misses    [numClasses]uint64
	Inhibited [numClasses]uint64
	Fills     [numClasses]uint64
	// Castouts[victim] counts dirty lines of class `victim` written
	// back to memory on eviction (the 603/604 caches are copy-back).
	Castouts [numClasses]uint64
	// EvictedBy[victim][filler] counts lines of class `victim` evicted
	// by a fill on behalf of class `filler` — the pollution matrix.
	EvictedBy [numClasses][numClasses]uint64
}

// TotalAccesses sums accesses over all classes.
func (s *Stats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums misses over all classes.
func (s *Stats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}

// MissRate returns misses/accesses over all classes (0 if idle).
func (s *Stats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

// PollutionBy returns how many lines belonging to *other* classes were
// evicted by fills on behalf of class c.
func (s *Stats) PollutionBy(c Class) uint64 {
	var t uint64
	for victim := Class(0); victim < numClasses; victim++ {
		if victim != c {
			t += s.EvictedBy[victim][c]
		}
	}
	return t
}

// Cache is one set-associative L1 cache (instruction or data). Lines
// are stored in blocks of four, set-major: way j of set s is slot
// s*ways+j of the blocks read as one flat sequence. A 4-way set — both
// L1 geometries — is exactly one block, so the 4-way kernels reach a
// set with one bounds-checked index; 1- and 2-way sets share a block
// and an 8-way set spans two.
type Cache struct {
	name      string
	blocks    [][4]line
	ways      int
	setBlocks int // blocks one set's slots touch: max(1, ways/4)
	lineShift uint
	setMask   uint32
	seq       uint64
	stats     Stats
}

// New builds a cache of the given total size, associativity and line
// size. Size must be ways*lineSize*2^k for some k.
func New(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	nlines := size / lineSize
	nsets := nlines / ways
	if nsets*ways*lineSize != size || nsets&(nsets-1) != 0 || ways&(ways-1) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d line=%d", name, size, ways, lineSize))
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &Cache{
		name:      name,
		blocks:    make([][4]line, (nlines+3)/4),
		ways:      ways,
		setBlocks: max(1, ways/4),
		lineShift: shift,
		setMask:   uint32(nsets - 1),
	}
}

// Name returns the label the cache was created with.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
//
//mmutricks:noalloc
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// slot returns flat slot f: way f%ways of set f/ways.
//
//mmutricks:noalloc
func (c *Cache) slot(f int) *line { return &c.blocks[f>>2][f&3] }

// probe4 returns the way of the 4-way block q that holds want, or -1:
// the one 4-way probe. Keys are unique within a set, so the first match
// is the only one.
//
//mmutricks:noalloc
func probe4(q *[4]line, want uint32) int {
	switch want {
	case q[0].key:
		return 0
	case q[1].key:
		return 1
	case q[2].key:
		return 2
	case q[3].key:
		return 3
	}
	return -1
}

// victim4 returns the way of the 4-way set q a fill replaces: the one
// 4-way victim choice. The rule is the first invalid way, else the
// least recently used one, and a strict-compare minimum over the stamps
// computes it: an invalid line is the zero line (stamp 0), a resident
// line's stamp is at least 1 (the sequence advances before every
// stamp), and the earliest way wins every tie. The tournament keeps the
// four loads independent.
//
//mmutricks:noalloc
func victim4(q *[4]line) int {
	m01, i01 := q[0].lru, 0
	if l1 := q[1].lru; l1 < m01 {
		m01, i01 = l1, 1
	}
	m23, i23 := q[2].lru, 2
	if l3 := q[3].lru; l3 < m23 {
		m23, i23 = l3, 3
	}
	if m23 < m01 {
		return i23
	}
	return i01
}

// install fills victim v with want on behalf of class, stamped seq:
// the one miss path of every route and geometry. It charges the fill
// and v's eviction — the pollution matrix and, for a dirty victim, a
// castout — to the counters directly; an invalid v is the zero line,
// so it charges nothing. It reports whether v was dirty (a writeback
// the caller charges).
//
//mmutricks:noalloc
func (c *Cache) install(v *line, want uint32, class Class, dirty uint8, seq uint64) (castout bool) {
	c.stats.Fills[class]++
	c.stats.EvictedBy[v.class][class] += uint64(v.key >> 31) // the valid bit
	c.stats.Castouts[v.class] += uint64(v.dirty)
	castout = v.dirty != 0
	v.key, v.class, v.dirty, v.lru = want, uint8(class), dirty, seq
	return castout
}

// lookup returns the line of set that holds want, or nil, on any
// geometry: it probes every block the set's slots lie in — a 4-way set
// is one block. A key of another set sharing a block can never equal
// want (the set index is part of the line address), so whole-block
// probes are exact.
//
//mmutricks:noalloc
func (c *Cache) lookup(set int, want uint32) *line {
	for b := range c.setBlocks {
		q := &c.blocks[set*c.ways>>2+b]
		if i := probe4(q, want); i >= 0 {
			return &q[i&3]
		}
	}
	return nil
}

// fill installs want in set on any geometry. The 4-way kernels inline
// victim4 and install instead: a call per miss costs a miss-heavy run
// a quarter of its time.
//
//mmutricks:noalloc
func (c *Cache) fill(set int, want uint32, class Class, dirty uint8, seq uint64) (castout bool) {
	if c.ways == 4 {
		q := &c.blocks[set]
		return c.install(&q[victim4(q)&3], want, class, dirty, seq)
	}
	// The same rule as victim4, as a scan of the set's slots.
	v := c.slot(set * c.ways)
	for f := set*c.ways + 1; f < (set+1)*c.ways; f++ {
		if l := c.slot(f); l.lru < v.lru {
			v = l
		}
	}
	return c.install(v, want, class, dirty, seq)
}

// ref performs the references of a streak on line address la, the last
// taking sequence number seq: a hit restamps the line and ORs in dirty,
// a miss fills. A streak's intermediate stamps are unobservable — a
// hit touches no other line — so k references to one line are one ref
// with the sequence advanced by k.
//
//mmutricks:noalloc
func (c *Cache) ref(la uint32, class Class, dirty uint8, seq uint64) (hit, castout bool) {
	set, want := int(la&c.setMask), la|lineKeyValid
	if l := c.lookup(set, want); l != nil {
		l.lru = seq
		l.dirty |= dirty
		return true, false
	}
	return false, c.fill(set, want, class, dirty, seq)
}

// dirtyIf returns the dirty bit a reference leaves: 1 for a store.
//
//mmutricks:noalloc
func dirtyIf(write bool) uint8 {
	if write {
		return 1
	}
	return 0
}

// Access performs one cached access on behalf of class. It returns
// whether the access hit and whether a miss had to cast out a dirty
// victim line (a memory writeback the caller must charge — the 603/604
// caches are copy-back). Writes mark the line dirty; misses allocate
// for both reads and writes, and any evicted line is attributed in the
// pollution matrix.
//
//mmutricks:free hit/miss/castout are returned; the machine layer charges them
//mmutricks:noalloc
func (c *Cache) Access(pa arch.PhysAddr, class Class, write bool) (hit, castout bool) {
	c.stats.Accesses[class]++
	c.seq++
	la := uint32(pa) >> c.lineShift
	set, want := int(la&c.setMask), la|lineKeyValid
	if l := c.lookup(set, want); l != nil {
		l.lru = c.seq
		l.dirty |= dirtyIf(write)
		return true, false
	}
	c.stats.Misses[class]++
	if c.ways == 4 {
		q := &c.blocks[set]
		return false, c.install(&q[victim4(q)&3], want, class, dirtyIf(write), c.seq)
	}
	return false, c.fill(set, want, class, dirtyIf(write), c.seq)
}

// AccessInhibited performs a cache-inhibited access: it never hits and
// never fills, exactly like a WIMG I=1 access on the real part.
//
//mmutricks:free the caller charges the uncached memory latency
//mmutricks:noalloc
func (c *Cache) AccessInhibited(class Class) {
	c.stats.Inhibited[class]++
}

// AccessNoAlloc performs an access under a locked cache (§10.1): hits
// behave normally, but misses do not allocate — nothing is evicted to
// make room. It returns whether the access hit.
//
//mmutricks:free hit/miss is returned; the machine layer charges it
//mmutricks:noalloc
func (c *Cache) AccessNoAlloc(pa arch.PhysAddr, class Class, write bool) (hit bool) {
	c.stats.Accesses[class]++
	c.seq++
	la := uint32(pa) >> c.lineShift
	if l := c.lookup(int(la&c.setMask), la|lineKeyValid); l != nil {
		l.lru = c.seq
		l.dirty |= dirtyIf(write)
		return true
	}
	c.stats.Misses[class]++
	return false
}

// ZeroLine is the dcbz instruction: establish the line in the cache,
// zeroed and dirty, WITHOUT reading memory. §9 notes the authors
// avoided it for bzero() "for the same reason" as cached idle clearing:
// it trades a memory read for maximal cache pollution. It returns
// whether a dirty victim was cast out. It counts as an access but not a
// (latency-bearing) miss: the fill needs no memory read.
//
//mmutricks:free the castout is returned; machine.ZeroLine charges it
func (c *Cache) ZeroLine(pa arch.PhysAddr, class Class) (castout bool) {
	c.stats.Accesses[class]++
	c.seq++
	_, castout = c.ref(uint32(pa)>>c.lineShift, class, 1, c.seq)
	return castout
}

// WritePattern is the store pattern of a batched run: reference i of
// the run is a store iff bit i&3 of the pattern is set, so a run longer
// than four references repeats the pattern. A line's dirty bit after a
// run is the OR of the pattern bits of the references that touched it.
type WritePattern uint8

const (
	// NoWrites makes every reference of the run a load.
	NoWrites WritePattern = 0
	// AllWrites makes every reference of the run a store.
	AllWrites WritePattern = 0xF
	// EveryFourthWrite is three loads then one store, repeating: the
	// typical user read/write mix.
	EveryFourthWrite WritePattern = 0x8
)

// WritesIf returns AllWrites when write is set and NoWrites otherwise.
//
//mmutricks:noalloc
func WritesIf(write bool) WritePattern {
	if write {
		return AllWrites
	}
	return NoWrites
}

// Write reports whether reference i of the run is a store.
//
//mmutricks:noalloc
func (w WritePattern) Write(i int) bool { return w.dirty(i) != 0 }

// Rotate returns the pattern of the run's remainder after k references:
// reference j of the result is reference k+j of w.
//
//mmutricks:noalloc
func (w WritePattern) Rotate(k int) WritePattern {
	w &= AllWrites
	s := uint(k) & 3
	return (w>>s | w<<(4-s)) & AllWrites
}

// dirty returns reference i's dirty bit.
//
//mmutricks:noalloc
func (w WritePattern) dirty(i int) uint8 { return uint8(w>>(uint(i)&3)) & 1 }

// anyIn reports whether any of the k references starting at reference
// i is a store — whether a line those references share ends up dirty.
//
//mmutricks:noalloc
func (w WritePattern) anyIn(i, k int) bool {
	if k >= 4 {
		return w&AllWrites != 0
	}
	return w.Rotate(i)&(1<<uint(k)-1) != 0
}

// MissRef records one missing reference within a run: the index of the
// reference in the run and whether its fill cast out a dirty victim.
type MissRef struct {
	Index   int32
	Castout bool
}

// AccessRun performs n equally-strided accesses (pa, pa+stride, ...)
// on behalf of class, reference i a store iff w.Write(i), exactly as n
// scalar Access calls would: same counters, same final LRU/dirty state,
// same eviction attribution. Missing references are recorded in misses,
// in reference order, so the machine layer can charge fills and emit
// trace events at the right points; the caller's buffer must hold one
// entry per distinct line the run can touch.
//
//mmutricks:free misses are returned; the machine layer charges the fills
//mmutricks:noalloc
func (c *Cache) AccessRun(pa arch.PhysAddr, n, stride int, class Class, w WritePattern, misses []MissRef) (nmiss int) {
	nmiss, _ = c.run(pa, n, stride, class, w, misses)
	return nmiss
}

// AccessRunCount is AccessRunCountPattern for a run whose references
// are all stores (write) or all loads.
//
//mmutricks:free miss/castout counts are returned; the caller charges them
//mmutricks:noalloc
func (c *Cache) AccessRunCount(pa arch.PhysAddr, n, stride int, class Class, write bool) (nmiss, ncast int) {
	return c.run(pa, n, stride, class, WritesIf(write), nil)
}

// AccessRunCountPattern is AccessRun without the per-miss records:
// cache state and statistics advance identically, but only the miss and
// castout counts come back. The machine layer uses it when the tracer
// is off and there is no L2 — the per-miss fill costs are then
// closed-form, so nothing downstream needs to know where the misses
// fell, and the run needs no chunking to bound a scratch buffer.
//
//mmutricks:free miss/castout counts are returned; the machine layer charges them
//mmutricks:noalloc
func (c *Cache) AccessRunCountPattern(pa arch.PhysAddr, n, stride int, class Class, w WritePattern) (nmiss, ncast int) {
	return c.run(pa, n, stride, class, w, nil)
}

// run is AccessRun and AccessRunCountPattern: it records each miss in
// misses unless misses is nil, and counts misses and castouts.
//
//mmutricks:noalloc
func (c *Cache) run(pa arch.PhysAddr, n, stride int, class Class, w WritePattern, misses []MissRef) (nmiss, ncast int) {
	if c.ways != 4 {
		// Other geometries (the 1-way L2, test caches) take the scalar
		// loop the 4-way kernels below are equivalent to.
		for i := 0; i < n; i++ {
			if hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, w.Write(i)); !hit {
				if misses != nil {
					misses[nmiss] = MissRef{Index: int32(i), Castout: castout}
				}
				nmiss++
				if castout {
					ncast++
				}
			}
		}
		return nmiss, ncast
	}
	c.stats.Accesses[class] += uint64(n)
	blocks, mask := c.blocks, c.setMask
	if lineMask := uint32(1)<<c.lineShift - 1; (uint32(stride)|uint32(pa))&lineMask == 0 {
		// The dominant shape: line-aligned references a line multiple
		// apart, one reference per line. Runs are phase-coherent — a
		// warm run hits throughout, a clearing run misses throughout —
		// so hits stream through hits4 and misses through the loop
		// below it, and the miss path's register pressure stays out of
		// the hit loop.
		seq := c.seq
		la := uint32(pa) >> c.lineShift
		step := uint32(stride) >> c.lineShift
		for i := 0; i < n; {
			i, la, seq = hits4(blocks, mask, la, step, i, n, w, seq)
			for ; i < n; i, la = i+1, la+step {
				q := &blocks[la&mask]
				if probe4(q, la|lineKeyValid) >= 0 {
					break
				}
				seq++
				castout := c.install(&q[victim4(q)&3], la|lineKeyValid, class, w.dirty(i), seq)
				if misses != nil {
					misses[nmiss] = MissRef{Index: int32(i), Castout: castout}
				}
				nmiss++
				if castout {
					ncast++
				}
			}
		}
		c.seq = seq
		c.stats.Misses[class] += uint64(nmiss)
		return nmiss, ncast
	}
	// Sub-line strides or an unaligned base: group the references by
	// the line they land on; a streak of k references is one probe with
	// the sequence advanced by k, as in ref.
	for i := 0; i < n; {
		la, k := c.streak(pa, i, n, stride)
		c.seq += uint64(k)
		q := &blocks[la&mask]
		dirty := dirtyIf(w.anyIn(i, k))
		if wi := probe4(q, la|lineKeyValid); wi >= 0 {
			q[wi&3].lru = c.seq
			q[wi&3].dirty |= dirty
		} else {
			castout := c.install(&q[victim4(q)&3], la|lineKeyValid, class, dirty, c.seq)
			if misses != nil {
				misses[nmiss] = MissRef{Index: int32(i), Castout: castout}
			}
			nmiss++
			if castout {
				ncast++
			}
		}
		i += k
	}
	c.stats.Misses[class] += uint64(nmiss)
	return nmiss, ncast
}

// hits4 stamps the references of an aligned run on a 4-way cache that
// hit, from reference i (line la) up to the first miss or the end of
// the run, and reports where it stopped. It is a leaf of its own, kept
// out of line even where profile-guided inlining would pull it into
// run, so the hit loop keeps its state in registers: inlined, it shares
// run's register allocation with the miss loop and spills.
//
//go:noinline
//mmutricks:noalloc
func hits4(blocks [][4]line, mask, la, step uint32, i, n int, w WritePattern, seq uint64) (int, uint32, uint64) {
	for ; i < n; i, la = i+1, la+step {
		q := &blocks[la&mask]
		wi := probe4(q, la|lineKeyValid)
		if wi < 0 {
			break
		}
		seq++
		q[wi&3].lru = seq
		if w.dirty(i) != 0 {
			q[wi&3].dirty = 1
		}
	}
	return i, la, seq
}

// streak returns the line address of reference i of a run and how many
// consecutive references from i land on that line. The scan is
// division-free; streaks of sub-line strides are short.
//
//mmutricks:noalloc
func (c *Cache) streak(pa arch.PhysAddr, i, n, stride int) (la uint32, k int) {
	a := pa + arch.PhysAddr(i*stride)
	la = uint32(a) >> c.lineShift
	k = 1
	for i+k < n && uint32(a+arch.PhysAddr(k*stride))>>c.lineShift == la {
		k++
	}
	return la, k
}

// AccessNoAllocRun is AccessRun under a locked cache (§10.1): hits
// behave normally, but misses do not allocate, so every reference on a
// non-resident line misses and is recorded individually (the caller's
// buffer must hold n entries).
//
//mmutricks:free misses are returned; the machine layer charges the uncached latency
//mmutricks:noalloc
func (c *Cache) AccessNoAllocRun(pa arch.PhysAddr, n, stride int, class Class, w WritePattern, misses []MissRef) (nmiss int) {
	c.stats.Accesses[class] += uint64(n)
	for i := 0; i < n; {
		la, k := c.streak(pa, i, n, stride)
		c.seq += uint64(k)
		if l := c.lookup(int(la&c.setMask), la|lineKeyValid); l != nil {
			l.lru = c.seq
			l.dirty |= dirtyIf(w.anyIn(i, k))
		} else {
			for j := 0; j < k; j++ {
				misses[nmiss] = MissRef{Index: int32(i + j)}
				nmiss++
			}
		}
		i += k
	}
	c.stats.Misses[class] += uint64(nmiss)
	return nmiss
}

// ZeroLineRun performs n consecutive dcbz line-establishes starting at
// pa, exactly as n scalar ZeroLine calls. It returns how many dirty
// victims were cast out in total.
//
//mmutricks:free castouts are returned; machine.ZeroLineRun charges them
//mmutricks:noalloc
func (c *Cache) ZeroLineRun(pa arch.PhysAddr, nlines int, class Class) (castouts int) {
	c.stats.Accesses[class] += uint64(nlines)
	la := uint32(pa) >> c.lineShift
	for i := 0; i < nlines; i++ {
		c.seq++
		if _, castout := c.ref(la+uint32(i), class, 1, c.seq); castout {
			castouts++
		}
	}
	return castouts
}

// AccessInhibitedN counts n cache-inhibited accesses in one step.
//
//mmutricks:free the caller charges the uncached memory latency
//mmutricks:noalloc
func (c *Cache) AccessInhibitedN(class Class, n int) {
	c.stats.Inhibited[class] += uint64(n)
}

// Prefetch issues a dcbt-style touch: the line is brought in (filling
// and possibly evicting, with normal attribution) but no access or miss
// is counted — the latency is assumed overlapped with other work. It
// reports whether a fill was needed.
//
//mmutricks:free prefetch latency overlaps; machine.Prefetch charges the issue cost
func (c *Cache) Prefetch(pa arch.PhysAddr, class Class) (filled bool) {
	c.seq++
	hit, _ := c.ref(uint32(pa)>>c.lineShift, class, 0, c.seq)
	return !hit
}

// Touch fills a line without counting an access or a miss; used to
// preload state (e.g. warming the cache before measurement).
//
//mmutricks:free deliberately uncounted warm-up, outside the measured window
func (c *Cache) Touch(pa arch.PhysAddr, class Class) {
	c.Prefetch(pa, class)
}

// Contains reports whether the line holding pa is currently resident.
func (c *Cache) Contains(pa arch.PhysAddr) bool {
	la := uint32(pa) >> c.lineShift
	return c.lookup(int(la&c.setMask), la|lineKeyValid) != nil
}

// InvalidateAll empties the cache (used at machine reset).
//
//mmutricks:free machine reset happens outside any measured window
func (c *Cache) InvalidateAll() { clear(c.blocks) }

// ResetStats zeroes the counters without touching cache contents, so a
// benchmark can warm up and then measure.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// CorruptCleanLine picks an arbitrary valid, clean line — skipping the
// line holding avoid, so the access in flight is never the victim —
// and returns its physical address as a parity-fault report. Clean
// lines only: a flip in a clean line is recoverable by invalidation
// (memory still has the data); a dirty line would be data loss. The
// line state itself is untouched — the poison lives in the pending
// machine-check report, and the repair is InvalidateLine.
//
//mmutricks:free a hardware parity flip costs the running program nothing
//mmutricks:noalloc
func (c *Cache) CorruptCleanLine(rnd uint64, avoid arch.PhysAddr) (victim arch.PhysAddr, ok bool) {
	avoidKey := (uint32(avoid) >> c.lineShift) | lineKeyValid
	start := uint32(rnd) & c.setMask
	for i := 0; i < c.Sets(); i++ {
		set := int((start + uint32(i)) & c.setMask)
		for f := set * c.ways; f < (set+1)*c.ways; f++ {
			if l := c.slot(f); l.key&lineKeyValid != 0 && l.dirty == 0 && l.key != avoidKey {
				return arch.PhysAddr(l.key&^lineKeyValid) << c.lineShift, true
			}
		}
	}
	return 0, false
}

// InvalidateLine drops the line holding pa, if resident — the
// machine-check repair for a cache parity fault. Idempotent; reports
// whether the line was still there.
//
//mmutricks:free the caller (the machine-check handler) charges the repair
//mmutricks:noalloc
func (c *Cache) InvalidateLine(pa arch.PhysAddr) bool {
	la := uint32(pa) >> c.lineShift
	if l := c.lookup(int(la&c.setMask), la|lineKeyValid); l != nil {
		*l = line{}
		return true
	}
	return false
}

// Residency counts resident lines per class — a snapshot of who owns
// the cache, used by the §9 analysis.
func (c *Cache) Residency() map[Class]int {
	m := make(map[Class]int)
	for i := range c.blocks {
		for _, l := range &c.blocks[i] {
			if l.key&lineKeyValid != 0 {
				m[Class(l.class)]++
			}
		}
	}
	return m
}

// DirtyLines counts resident dirty lines — pending writebacks.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.blocks {
		for _, l := range &c.blocks[i] {
			if l.key&lineKeyValid != 0 && l.dirty != 0 {
				n++
			}
		}
	}
	return n
}
