package vclock

import (
	"sync"
	"testing"
)

// slabsFor is how many slabs the growth schedule opens for k pairs of one
// width: arenaFirstPairs, doubling up to arenaMaxPairs, then full slabs.
func slabsFor(k int) int {
	slabs, pairs := 0, arenaFirstPairs
	for k > 0 {
		k -= pairs
		slabs++
		pairs = min(2*pairs, arenaMaxPairs)
	}
	return slabs
}

// TestArenaExactFit carves k pairs from one arena: the slab count follows the
// growth schedule exactly and stays within ⌈k/arenaMaxPairs⌉ plus the growth
// ramp, and every clock is zeroed, disjoint from every other and capped at n.
// (core's TestArenaSharedAcrossNodes checks the same bound for many nodes
// carving from one arena.)
func TestArenaExactFit(t *testing.T) {
	const n = 37
	for _, k := range []int{1, 2, 3, 30, 31, 500} {
		a := NewArena()
		slabs := 0
		var last *uint32
		type pair struct{ lo, hi VC }
		pairs := make([]pair, 0, k)
		for i := 0; i < k; i++ {
			lo, hi := a.AllocPair(n)
			if first := &a.slab[0]; first != last {
				slabs++
				last = first
			}
			if len(lo) != n || cap(lo) != n || len(hi) != n || cap(hi) != n {
				t.Fatalf("k=%d: pair %d has len/cap %d/%d and %d/%d, want %d", k, i, len(lo), cap(lo), len(hi), cap(hi), n)
			}
			for c := range lo {
				if lo[c] != 0 || hi[c] != 0 {
					t.Fatalf("k=%d: pair %d not zeroed", k, i)
				}
			}
			// Stamp the clocks; a later carve that overlapped an earlier
			// clock would overwrite the stamp.
			for c := range lo {
				lo[c], hi[c] = uint32(2*i+1), uint32(2*i+2)
			}
			pairs = append(pairs, pair{lo, hi})
		}
		if want := slabsFor(k); slabs != want {
			t.Errorf("k=%d: %d slabs, want %d", k, slabs, want)
		}
		ramp := 0 // slabs smaller than arenaMaxPairs
		for p := arenaFirstPairs; p < arenaMaxPairs; p *= 2 {
			ramp++
		}
		if slabs > ramp+(k+arenaMaxPairs-1)/arenaMaxPairs {
			t.Errorf("k=%d: %d slabs exceed the exact-fit bound", k, slabs)
		}
		for i, p := range pairs {
			for c := range p.lo {
				if p.lo[c] != uint32(2*i+1) || p.hi[c] != uint32(2*i+2) {
					t.Fatalf("k=%d: pair %d overwritten by a later carve", k, i)
				}
			}
		}
		// An append must reallocate, not spill into the neighbour.
		p := pairs[0]
		grown := append(p.lo, 99)
		if p.hi[0] != 2 || &grown[0] == &p.lo[0] {
			t.Errorf("k=%d: append to Lo spilled into Hi", k)
		}
	}
}

// TestArenaMixedWidths carves pairs of different widths from one arena (a
// shared substrate serves tenants of different sizes): each pair has the
// requested width and stays intact.
func TestArenaMixedWidths(t *testing.T) {
	var a Arena
	widths := []int{63, 7, 1023, 63, 15, 1023, 1}
	var got []VC
	for i := 0; i < 200; i++ {
		n := widths[i%len(widths)]
		lo, hi := a.AllocPair(n)
		if len(lo) != n || cap(hi) != n {
			t.Fatalf("carve %d: width %d/%d, want %d", i, len(lo), cap(hi), n)
		}
		lo.Tick(0)
		hi.Tick(n - 1)
		got = append(got, lo, hi)
	}
	for i := 0; i < len(got); i += 2 {
		lo, hi := got[i], got[i+1]
		if lo[0] != 1 || hi[len(hi)-1] != 1 || lo.Sum() != 1 || hi.Sum() != 1 {
			t.Fatalf("carve %d: pair disturbed by a neighbour: lo %v… hi …%v", i/2, lo[0], hi[len(hi)-1])
		}
	}
}

// TestArenaConcurrentCarve carves from one arena on many goroutines, each
// writing its own pairs; run under -race, overlapping carves would race, and
// the final check catches any overwrite.
func TestArenaConcurrentCarve(t *testing.T) {
	const n, perG, gs = 31, 300, 8
	a := NewArena()
	out := make([][]VC, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lo, hi := a.AllocPair(n)
				for c := range lo {
					lo[c], hi[c] = uint32(g), uint32(i)
				}
				out[g] = append(out[g], lo, hi)
			}
		}(g)
	}
	wg.Wait()
	for g, clocks := range out {
		for j, v := range clocks {
			want := uint32(g)
			if j%2 == 1 {
				want = uint32(j / 2)
			}
			for c := range v {
				if v[c] != want {
					t.Fatalf("goroutine %d clock %d: component %d = %d, want %d", g, j, c, v[c], want)
				}
			}
		}
	}
}
