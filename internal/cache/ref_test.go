package cache

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"mmutricks/internal/arch"
)

// refCache is the reference model the cache is checked against: the
// flat, set-major []line layout with one linear probe and one linear
// victim scan for every geometry, and every batched call written as the
// scalar loop it stands for. It is deliberately slow and obvious.
type refCache struct {
	lines     []line
	ways      int
	lineShift uint
	setMask   uint32
	seq       uint64
	stats     Stats
}

func newRef(size, ways, lineSize int) *refCache {
	c := New("ref", size, ways, lineSize) // validates the geometry
	return &refCache{
		lines:     make([]line, size/lineSize),
		ways:      ways,
		lineShift: c.lineShift,
		setMask:   c.setMask,
	}
}

func (c *refCache) index(pa arch.PhysAddr) (set int, tag uint32) {
	la := uint32(pa) >> c.lineShift
	return int(la & c.setMask), la
}

func (c *refCache) setLines(set int) []line {
	return c.lines[set*c.ways : (set+1)*c.ways]
}

// probe stamps and returns the resident line holding pa, or nil.
func (c *refCache) probe(pa arch.PhysAddr) (*line, int, uint32) {
	set, tag := c.index(pa)
	c.seq++
	lines := c.setLines(set)
	for i := range lines {
		if lines[i].key == tag|lineKeyValid {
			lines[i].lru = c.seq
			return &lines[i], set, tag
		}
	}
	return nil, set, tag
}

func (c *refCache) fill(set int, tag uint32, class Class, write bool) (castout bool) {
	c.stats.Fills[class]++
	lines := c.setLines(set)
	victim := 0
	minLRU := ^uint64(0)
	for i := range lines {
		if lines[i].key&lineKeyValid == 0 {
			victim = i
			goto install
		}
		if lines[i].lru < minLRU {
			minLRU = lines[i].lru
			victim = i
		}
	}
	c.stats.EvictedBy[lines[victim].class][class]++
	if lines[victim].dirty != 0 {
		c.stats.Castouts[lines[victim].class]++
		castout = true
	}
install:
	var dirty uint8
	if write {
		dirty = 1
	}
	lines[victim] = line{key: tag | lineKeyValid, class: uint8(class), dirty: dirty, lru: c.seq}
	return castout
}

func (c *refCache) Access(pa arch.PhysAddr, class Class, write bool) (hit, castout bool) {
	c.stats.Accesses[class]++
	l, set, tag := c.probe(pa)
	if l != nil {
		if write {
			l.dirty = 1
		}
		return true, false
	}
	c.stats.Misses[class]++
	return false, c.fill(set, tag, class, write)
}

func (c *refCache) AccessNoAlloc(pa arch.PhysAddr, class Class, write bool) bool {
	c.stats.Accesses[class]++
	if l, _, _ := c.probe(pa); l != nil {
		if write {
			l.dirty = 1
		}
		return true
	}
	c.stats.Misses[class]++
	return false
}

func (c *refCache) ZeroLine(pa arch.PhysAddr, class Class) bool {
	c.stats.Accesses[class]++
	l, set, tag := c.probe(pa)
	if l != nil {
		l.dirty = 1
		return false
	}
	return c.fill(set, tag, class, true)
}

func (c *refCache) Prefetch(pa arch.PhysAddr, class Class) bool {
	if l, set, tag := c.probe(pa); l == nil {
		c.fill(set, tag, class, false)
		return true
	}
	return false
}

func (c *refCache) AccessRun(pa arch.PhysAddr, n, stride int, class Class, w WritePattern) []MissRef {
	var out []MissRef
	for i := 0; i < n; i++ {
		if hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, w.Write(i)); !hit {
			out = append(out, MissRef{Index: int32(i), Castout: castout})
		}
	}
	return out
}

func (c *refCache) AccessNoAllocRun(pa arch.PhysAddr, n, stride int, class Class, w WritePattern) []MissRef {
	var out []MissRef
	for i := 0; i < n; i++ {
		if !c.AccessNoAlloc(pa+arch.PhysAddr(i*stride), class, w.Write(i)) {
			out = append(out, MissRef{Index: int32(i)})
		}
	}
	return out
}

func (c *refCache) Contains(pa arch.PhysAddr) bool {
	set, tag := c.index(pa)
	for _, l := range c.setLines(set) {
		if l.key == tag|lineKeyValid {
			return true
		}
	}
	return false
}

func (c *refCache) InvalidateLine(pa arch.PhysAddr) bool {
	set, tag := c.index(pa)
	lines := c.setLines(set)
	for i := range lines {
		if lines[i].key == tag|lineKeyValid {
			lines[i] = line{}
			return true
		}
	}
	return false
}

func (c *refCache) CorruptCleanLine(rnd uint64, avoid arch.PhysAddr) (arch.PhysAddr, bool) {
	avoidKey := (uint32(avoid) >> c.lineShift) | lineKeyValid
	start := uint32(rnd) & c.setMask
	for i := 0; i <= int(c.setMask); i++ {
		for _, l := range c.setLines(int((start + uint32(i)) & c.setMask)) {
			if l.key&lineKeyValid != 0 && l.dirty == 0 && l.key != avoidKey {
				return arch.PhysAddr(l.key&^lineKeyValid) << c.lineShift, true
			}
		}
	}
	return 0, false
}

func (c *refCache) InvalidateAll() { clear(c.lines) }

func (c *refCache) Residency() map[Class]int {
	m := make(map[Class]int)
	for _, l := range c.lines {
		if l.key&lineKeyValid != 0 {
			m[Class(l.class)]++
		}
	}
	return m
}

func (c *refCache) DirtyLines() int {
	n := 0
	for _, l := range c.lines {
		if l.key&lineKeyValid != 0 && l.dirty != 0 {
			n++
		}
	}
	return n
}

// matchesRef fails unless c and the reference agree on statistics, the
// LRU sequence and every line, way by way.
func matchesRef(t *testing.T, step int, c *Cache, r *refCache) {
	t.Helper()
	if c.stats != r.stats {
		t.Fatalf("step %d: stats diverge:\ncache %+v\nref   %+v", step, c.stats, r.stats)
	}
	if c.seq != r.seq {
		t.Fatalf("step %d: LRU sequence diverges: cache %d, ref %d", step, c.seq, r.seq)
	}
	for f := range r.lines {
		if *c.slot(f) != r.lines[f] {
			t.Fatalf("step %d: slot %d diverges: cache %+v, ref %+v", step, f, *c.slot(f), r.lines[f])
		}
	}
	if !maps.Equal(c.Residency(), r.Residency()) || c.DirtyLines() != r.DirtyLines() {
		t.Fatalf("step %d: residency/dirty lines diverge", step)
	}
}

// FuzzCacheMatchesReference drives the cache and the reference model
// with one seeded operation sequence — every public operation that
// touches cache state, over 1-, 2-, 4- and 8-way geometries — and
// checks that each call returns the same result and leaves both models
// in the same state.
func FuzzCacheMatchesReference(f *testing.F) {
	for geom := uint8(0); geom < 8; geom++ {
		f.Add(geom, uint64(geom)*7919+1)
	}
	f.Fuzz(func(t *testing.T, geom uint8, seed uint64) {
		ways := []int{1, 2, 4, 8}[geom%4]
		size := []int{4 << 10, 16 << 10}[geom/4%2]
		c, r := New("c", size, ways, 32), newRef(size, ways, 32)
		rng := rand.New(rand.NewPCG(seed, uint64(geom)))
		// Addresses span three cache sizes, so sets conflict and evict.
		addr := func() arch.PhysAddr { return arch.PhysAddr(0x10000 + rng.IntN(3*size)) }
		buf := make([]MissRef, 512)
		for step := 0; step < 400; step++ {
			pa, class := addr(), Class(rng.IntN(int(numClasses)))
			w := WritePattern(rng.IntN(16))
			n := 1 + rng.IntN(300)
			stride := []int{1 + rng.IntN(70), 32, 64, 32 * (1 + rng.IntN(8)), 4096}[rng.IntN(5)]
			if rng.IntN(2) == 0 {
				pa &^= 31
			}
			switch op := rng.IntN(12); op {
			case 0:
				write := rng.IntN(2) == 0
				h, co := c.Access(pa, class, write)
				rh, rco := r.Access(pa, class, write)
				if h != rh || co != rco {
					t.Fatalf("step %d: Access = (%v, %v), ref (%v, %v)", step, h, co, rh, rco)
				}
			case 1:
				got, want := c.AccessNoAlloc(pa, class, w.Write(0)), r.AccessNoAlloc(pa, class, w.Write(0))
				if got != want {
					t.Fatalf("step %d: AccessNoAlloc = %v, ref %v", step, got, want)
				}
			case 2:
				got := slices.Clone(buf[:c.AccessRun(pa, n, stride, class, w, buf)])
				if want := r.AccessRun(pa, n, stride, class, w); !slices.Equal(got, want) {
					t.Fatalf("step %d: AccessRun misses diverge:\ncache %v\nref   %v", step, got, want)
				}
			case 3:
				m, co := c.AccessRunCountPattern(pa, n, stride, class, w)
				want := r.AccessRun(pa, n, stride, class, w)
				rco := 0
				for _, mr := range want {
					if mr.Castout {
						rco++
					}
				}
				if m != len(want) || co != rco {
					t.Fatalf("step %d: AccessRunCountPattern = (%d, %d), ref (%d, %d)", step, m, co, len(want), rco)
				}
			case 4:
				got := slices.Clone(buf[:c.AccessNoAllocRun(pa, n, stride, class, w, buf)])
				if want := r.AccessNoAllocRun(pa, n, stride, class, w); !slices.Equal(got, want) {
					t.Fatalf("step %d: AccessNoAllocRun misses diverge:\ncache %v\nref   %v", step, got, want)
				}
			case 5:
				if got, want := c.ZeroLine(pa, class), r.ZeroLine(pa, class); got != want {
					t.Fatalf("step %d: ZeroLine = %v, ref %v", step, got, want)
				}
			case 6:
				nl := n % 40
				want := 0
				for i := 0; i < nl; i++ {
					if r.ZeroLine(pa+arch.PhysAddr(i*32), class) {
						want++
					}
				}
				if got := c.ZeroLineRun(pa, nl, class); got != want {
					t.Fatalf("step %d: ZeroLineRun = %d, ref %d", step, got, want)
				}
			case 7:
				if got, want := c.Prefetch(pa, class), r.Prefetch(pa, class); got != want {
					t.Fatalf("step %d: Prefetch = %v, ref %v", step, got, want)
				}
			case 8:
				c.Touch(pa, class)
				r.Prefetch(pa, class)
			case 9:
				if got, want := c.InvalidateLine(pa), r.InvalidateLine(pa); got != want {
					t.Fatalf("step %d: InvalidateLine = %v, ref %v", step, got, want)
				}
			case 10:
				rnd := rng.Uint64()
				va, vok := c.CorruptCleanLine(rnd, pa)
				wa, wok := r.CorruptCleanLine(rnd, pa)
				if va != wa || vok != wok {
					t.Fatalf("step %d: CorruptCleanLine = (%#x, %v), ref (%#x, %v)", step, va, vok, wa, wok)
				}
			case 11:
				if rng.IntN(20) == 0 {
					c.InvalidateAll()
					r.InvalidateAll()
				}
			}
			if got, want := c.Contains(pa), r.Contains(pa); got != want {
				t.Fatalf("step %d: Contains(%#x) = %v, ref %v", step, pa, got, want)
			}
			matchesRef(t, step, c, r)
		}
	})
}
