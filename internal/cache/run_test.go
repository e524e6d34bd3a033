package cache

import (
	"slices"
	"testing"

	"mmutricks/internal/arch"
)

// AccessRunCountPattern is the harness's hottest function: it must
// agree with the scalar Access loop on every statistic and every line
// of cache state, for any alignment, stride, geometry and write
// pattern. scalarCount is the ground truth.
func scalarCount(c *Cache, pa arch.PhysAddr, n, stride int, class Class, w WritePattern) (nmiss, ncast int) {
	for i := 0; i < n; i++ {
		hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, w.Write(i))
		if !hit {
			nmiss++
			if castout {
				ncast++
			}
		}
	}
	return nmiss, ncast
}

// scalarMisses is the ground truth for AccessRun's miss records.
func scalarMisses(c *Cache, pa arch.PhysAddr, n, stride int, class Class, w WritePattern) []MissRef {
	var out []MissRef
	for i := 0; i < n; i++ {
		if hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, w.Write(i)); !hit {
			out = append(out, MissRef{Index: int32(i), Castout: castout})
		}
	}
	return out
}

// scalarNoAllocMisses is the ground truth for AccessNoAllocRun.
func scalarNoAllocMisses(c *Cache, pa arch.PhysAddr, n, stride int, class Class, w WritePattern) []MissRef {
	var out []MissRef
	for i := 0; i < n; i++ {
		if !c.AccessNoAlloc(pa+arch.PhysAddr(i*stride), class, w.Write(i)) {
			out = append(out, MissRef{Index: int32(i)})
		}
	}
	return out
}

// sameState fails unless the two caches agree on statistics, LRU
// sequence and every line.
func sameState(t *testing.T, run, scalar *Cache) {
	t.Helper()
	if *run.Stats() != *scalar.Stats() {
		t.Fatalf("stats diverge:\nrun    %+v\nscalar %+v", *run.Stats(), *scalar.Stats())
	}
	if run.seq != scalar.seq {
		t.Fatalf("LRU sequence diverges: run %d, scalar %d", run.seq, scalar.seq)
	}
	for i := range run.blocks {
		if run.blocks[i] != scalar.blocks[i] {
			t.Fatalf("block %d diverges: run %+v, scalar %+v", i, run.blocks[i], scalar.blocks[i])
		}
	}
}

// warmMixed fills c with dirty and clean kernel-data lines so the
// eviction and castout paths run.
func warmMixed(c *Cache, line int) {
	for i := 0; i < 4096; i++ {
		c.Access(arch.PhysAddr(i*line), ClassKernelData, i%3 == 0)
	}
}

func TestAccessRunCountMatchesScalar(t *testing.T) {
	cases := []struct {
		name             string
		size, ways, line int
		pa               arch.PhysAddr
		n, stride        int
		w                WritePattern
	}{
		{"aligned line stride", 16 << 10, 4, 32, 0x10000, 4096, 32, NoWrites},
		{"aligned write stream", 16 << 10, 4, 32, 0x10000, 4096, 32, AllWrites},
		{"aligned wide stride", 32 << 10, 4, 32, 0x8000, 1024, 128, AllWrites},
		{"unaligned base", 16 << 10, 4, 32, 0x10004, 2048, 32, NoWrites},
		{"sub-line stride", 16 << 10, 4, 32, 0x10000, 5000, 8, AllWrites},
		{"sub-line unaligned", 32 << 10, 4, 32, 0x10006, 3000, 12, NoWrites},
		{"single reference", 16 << 10, 4, 32, 0x2000, 1, 4, AllWrites},
		{"2-way geometry", 16 << 10, 2, 32, 0x10000, 2048, 32, AllWrites},
		{"8-way geometry", 16 << 10, 8, 32, 0x10000, 2048, 32, NoWrites},
		{"every fourth write, aligned", 16 << 10, 4, 32, 0x10000, 4096, 32, EveryFourthWrite},
		{"every fourth write, sub-line", 16 << 10, 4, 32, 0x10000, 5000, 8, EveryFourthWrite},
		{"every fourth write, unaligned sub-line", 32 << 10, 4, 32, 0x10006, 3000, 12, EveryFourthWrite},
		{"odd pattern, 2-way sub-line", 16 << 10, 2, 32, 0x10002, 3000, 20, 0x5},
		{"odd pattern, 8-way aligned", 16 << 10, 8, 32, 0x10000, 2048, 32, 0x6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr := New("run", tc.size, tc.ways, tc.line)
			cs := New("scalar", tc.size, tc.ways, tc.line)
			warmMixed(cr, tc.line)
			warmMixed(cs, tc.line)
			// The second pass re-walks the run in another phase, over
			// whatever the first left resident.
			for _, w := range []WritePattern{tc.w, tc.w.Rotate(1)} {
				rm, rc := cr.AccessRunCountPattern(tc.pa, tc.n, tc.stride, ClassUser, w)
				sm, sc := scalarCount(cs, tc.pa, tc.n, tc.stride, ClassUser, w)
				if rm != sm || rc != sc {
					t.Fatalf("counts diverge: run (%d misses, %d castouts), scalar (%d, %d)", rm, rc, sm, sc)
				}
				sameState(t, cr, cs)
			}
		})
	}
}

func TestWritePatternRotate(t *testing.T) {
	for w := WritePattern(0); w <= AllWrites; w++ {
		for k := 0; k < 9; k++ {
			r := w.Rotate(k)
			for j := 0; j < 8; j++ {
				if r.Write(j) != w.Write(k+j) {
					t.Fatalf("%#x.Rotate(%d).Write(%d) = %v, want %v", w, k, j, r.Write(j), w.Write(k+j))
				}
			}
			for n := 1; n < 7; n++ {
				want := false
				for j := 0; j < n; j++ {
					want = want || w.Write(k+j)
				}
				if got := w.anyIn(k, n); got != want {
					t.Fatalf("%#x.anyIn(%d, %d) = %v, want %v", w, k, n, got, want)
				}
			}
		}
	}
	if WritesIf(true) != AllWrites || WritesIf(false) != NoWrites {
		t.Fatal("WritesIf does not map to AllWrites/NoWrites")
	}
	for i := 0; i < 8; i++ {
		if EveryFourthWrite.Write(i) != (i%4 == 3) {
			t.Fatalf("EveryFourthWrite.Write(%d) = %v", i, EveryFourthWrite.Write(i))
		}
	}
}

// FuzzAccessRunCountParity drives random runs over random geometries,
// write patterns and phases through every batched entry point — the
// counting run, the recording run and the locked (no-allocate) run —
// checking that each matches the scalar loop in its results and leaves
// a bit-identical cache. The batched side issues the run in two pieces,
// the second with the pattern rotated by the first's length, as the
// kernel and machine layers do when they split a run. Each run goes
// twice, the second time in another phase over the lines the first
// left resident (or, for the locked cache, the warm-up left resident).
func FuzzAccessRunCountParity(f *testing.F) {
	f.Add(uint8(0), uint32(0x10000), uint16(512), uint8(32), uint8(1), uint16(0))
	f.Add(uint8(1), uint32(0x8004), uint16(3000), uint8(12), uint8(0), uint16(0))
	f.Add(uint8(1), uint32(0x10000), uint16(600), uint8(32), uint8(EveryFourthWrite), uint16(129))
	f.Add(uint8(5), uint32(0x20006), uint16(2000), uint8(7), uint8(0x5), uint16(3))
	f.Add(uint8(4), uint32(0x1E002), uint16(900), uint8(5), uint8(0x2), uint16(301))
	f.Add(uint8(6), uint32(0x1F010), uint16(400), uint8(11), uint8(0x4), uint16(77))
	f.Add(uint8(7), uint32(0x1C000), uint16(300), uint8(31), uint8(0xA), uint16(150))
	f.Add(uint8(3), uint32(0x4000), uint16(700), uint8(31), uint8(0x9), uint16(5))
	f.Add(uint8(2), uint32(0x1A000), uint16(250), uint8(63), uint8(0x3), uint16(98))
	f.Fuzz(func(t *testing.T, geom uint8, pa uint32, n uint16, stride, pattern uint8, split uint16) {
		ways := []int{2, 4, 8}[geom%3]
		st := int(stride)%256 + 1
		w := WritePattern(pattern) & AllWrites
		base := arch.PhysAddr(pa)
		cnt := int(n)
		s := int(split) % (cnt + 1)
		rest := base + arch.PhysAddr(s*st)
		warm := geom&4 != 0

		fresh := func(name string) *Cache {
			c := New(name, 16<<10, ways, 32)
			if warm {
				warmMixed(c, 32)
			}
			return c
		}
		buf := make([]MissRef, cnt+1)
		// inTwo issues the run in its two pieces through run, which
		// returns the number of miss records it left in buf, and
		// re-indexes the records to the whole run.
		inTwo := func(w WritePattern, run func(pa arch.PhysAddr, n int, w WritePattern) int) []MissRef {
			got := append([]MissRef(nil), buf[:run(base, s, w)]...)
			for _, m := range buf[:run(rest, cnt-s, w.Rotate(s))] {
				got = append(got, MissRef{Index: m.Index + int32(s), Castout: m.Castout})
			}
			return got
		}

		cr, cs := fresh("run"), fresh("scalar")
		rr, rs := fresh("run"), fresh("scalar")
		lr, ls := fresh("run"), fresh("scalar")
		for _, pw := range []WritePattern{w, w.Rotate(1)} {
			var rm, rc int
			inTwo(pw, func(pa arch.PhysAddr, n int, w WritePattern) int {
				m, c := cr.AccessRunCountPattern(pa, n, st, ClassUser, w)
				rm, rc = rm+m, rc+c
				return 0
			})
			if sm, sc := scalarCount(cs, base, cnt, st, ClassUser, pw); rm != sm || rc != sc {
				t.Fatalf("counts diverge: run (%d, %d), scalar (%d, %d)", rm, rc, sm, sc)
			}
			sameState(t, cr, cs)

			got := inTwo(pw, func(pa arch.PhysAddr, n int, w WritePattern) int {
				return rr.AccessRun(pa, n, st, ClassUser, w, buf)
			})
			if want := scalarMisses(rs, base, cnt, st, ClassUser, pw); !slices.Equal(got, want) {
				t.Fatalf("AccessRun misses diverge:\nrun    %v\nscalar %v", got, want)
			}
			sameState(t, rr, rs)

			got = inTwo(pw, func(pa arch.PhysAddr, n int, w WritePattern) int {
				return lr.AccessNoAllocRun(pa, n, st, ClassUser, w, buf)
			})
			if want := scalarNoAllocMisses(ls, base, cnt, st, ClassUser, pw); !slices.Equal(got, want) {
				t.Fatalf("AccessNoAllocRun misses diverge:\nrun    %v\nscalar %v", got, want)
			}
			sameState(t, lr, ls)
		}
	})
}

// The batch paths must stay allocation-free: they run inside the
// noalloc-proved simulation core, and a hidden allocation would also
// wreck the throughput the batching exists for.
func TestAccessRunZeroAllocs(t *testing.T) {
	c := New("d", 32<<10, 4, 32)
	var missBuf [256]MissRef
	var pa arch.PhysAddr
	if n := testing.AllocsPerRun(200, func() {
		c.AccessRun(pa, 128, 32, ClassUser, EveryFourthWrite, missBuf[:])
		c.AccessNoAllocRun(pa, 128, 32, ClassUser, AllWrites, missBuf[:])
		c.AccessRunCount(pa, 128, 32, ClassUser, true)
		c.AccessRunCountPattern(pa+4, 100, 12, ClassUser, EveryFourthWrite)
		c.ZeroLineRun(pa, 128, ClassIdle)
		pa += 4096
	}); n != 0 {
		t.Fatalf("batched access paths allocate %.1f times per op, want 0", n)
	}
}

// BenchmarkAccessRun vs BenchmarkAccessScalar measures the batching
// win at the cache layer: one call per 128-reference streak against
// 128 scalar calls, on the miss-heavy streaming pattern the harness
// spends most of its time in (page clears, copies, sweeps).
func BenchmarkAccessRun(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	var pa arch.PhysAddr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessRunCount(pa, 128, 32, ClassUser, true)
		pa += 4096
	}
}

func BenchmarkAccessScalar(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	var pa arch.PhysAddr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 128; j++ {
			c.Access(pa+arch.PhysAddr(j*32), ClassUser, true)
		}
		pa += 4096
	}
}

// BenchmarkAccessRunHits is the user-touch shape of a kernel compile:
// one patterned (EveryFourthWrite) reference per line over a page, on
// a working set the cache already holds — every reference hits.
func BenchmarkAccessRunHits(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	for p := 0; p < 4; p++ { // four pages fill all four ways
		c.AccessRunCountPattern(arch.PhysAddr(p*4096), 128, 32, ClassUser, EveryFourthWrite)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRunCountPattern(arch.PhysAddr(i&3*4096), 128, 32, ClassUser, EveryFourthWrite)
	}
}

// BenchmarkAccessShortRuns measures the fixed cost of a short run, the
// shapes that dominate translation-heavy streams: a 3-line aligned
// handler fetch, and an 8-reference stride-8 search of one 64-byte
// hash-table group (two lines), scattered over a 64 KB table so hits
// and misses mix.
func BenchmarkAccessShortRuns(b *testing.B) {
	b.Run("fetch3", func(b *testing.B) {
		c := New("i", 16<<10, 4, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRunCountPattern(arch.PhysAddr(0x3000+(i&15)*0x140), 3, 32, ClassKernelText, NoWrites)
		}
	})
	b.Run("pteg8", func(b *testing.B) {
		c := New("d", 16<<10, 4, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pteg := uint32(i) * 2654435761 >> 22 // 1024 groups
			c.AccessRunCountPattern(arch.PhysAddr(0x100000+pteg*64), 8, 8, ClassHashTable, NoWrites)
		}
	})
}
