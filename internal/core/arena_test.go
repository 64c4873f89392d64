package core

import (
	"bytes"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"hierdet/internal/interval"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// runs counts the maximal address-contiguous runs among blocks given as
// (start address, byte length): blocks carved back to back from one slab form
// one run, so the count bounds from below how many slabs the carving opened.
func runs(blocks [][2]uintptr) int {
	sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
	n := 0
	for i, b := range blocks {
		if i == 0 || blocks[i-1][0]+blocks[i-1][1] != b[0] {
			n++
		}
	}
	return n
}

// TestArenaSharedAcrossNodes drives m detector nodes, each on its own
// goroutine, against one shared Arena, and again with a private arena each.
// Every node's detections are byte-identical either way (carving is
// invisible to detection), and — the exact-fit property — the shared run's
// aggregate pairs and solution sets fall in no more contiguous runs than one
// arena's slab schedule opens for their total count, however many nodes
// carve. Per-node slabs need at least one run per detecting node and strand
// every node's tail. Run under -race, it doubles as the concurrent-carving
// check.
func TestArenaSharedAcrossNodes(t *testing.T) {
	const m, n = 8, 4
	streams := make([][][]interval.Interval, m)
	for g := range streams {
		streams[g] = workload.Generate(workload.Config{Topology: tree.Balanced(n-1, 1), Rounds: 40, Seed: int64(101 + g), PGlobal: 1}).Streams
	}
	run := func(shared *Arena) [][]Detection {
		out := make([][]Detection, m)
		var wg sync.WaitGroup
		for g := 0; g < m; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				nd := NewNode(100+g, Config{N: n, Strict: true, Parallel: true, Arena: shared}, false)
				for p := 0; p < n; p++ {
					nd.AddChild(p)
				}
				for k := 0; ; k++ {
					fed := false
					for p := 0; p < n; p++ {
						if k < len(streams[g][p]) {
							out[g] = append(out[g], nd.OnInterval(p, streams[g][p][k])...)
							fed = true
						}
					}
					if !fed {
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return out
	}
	shared, private := run(NewArena(nil)), run(nil)

	var pairs, sets [][2]uintptr
	setSlots := 0
	for g := range shared {
		if !bytes.Equal(encodeDetections(shared[g]), encodeDetections(private[g])) {
			t.Fatalf("node %d: detections differ between shared and private arenas", g)
		}
		for _, d := range shared[g] {
			sets = append(sets, [2]uintptr{uintptr(unsafe.Pointer(&d.Set[0])), uintptr(len(d.Set)) * unsafe.Sizeof(interval.Interval{})})
			setSlots += len(d.Set)
			lo, hi := d.Agg.Lo, d.Agg.Hi
			if cap(lo) != n || cap(hi) != n {
				t.Fatalf("node %d: aggregate bounds have capacity %d/%d, want %d", g, cap(lo), cap(hi), n)
			}
			if uintptr(unsafe.Pointer(&lo[0]))+n*4 != uintptr(unsafe.Pointer(&hi[0])) {
				t.Fatalf("node %d: aggregate Hi does not follow Lo", g)
			}
			pairs = append(pairs, [2]uintptr{uintptr(unsafe.Pointer(&lo[0])), 2 * n * 4})
		}
	}
	if len(pairs) < 4*m {
		t.Fatalf("only %d detections across %d nodes; the workload is too small to show anything", len(pairs), m)
	}
	// vclock.Arena opens slabs of 2, 4, 8 and 16 pairs, then 32 each.
	if got, bound := runs(pairs), 4+(len(pairs)+31)/32; got > bound {
		t.Errorf("%d aggregate pairs lie in %d runs, want at most %d", len(pairs), got, bound)
	}
	ramp := 0
	for c := setSlabFirst; c < setSlabMax; c *= 2 {
		ramp++
	}
	// A set that does not fit strands at most n-1 slots of a full slab.
	if got, bound := runs(sets), ramp+(setSlots+setSlabMax-n)/(setSlabMax-n+1); got > bound {
		t.Errorf("%d solution sets (%d slots) lie in %d runs, want at most %d", len(sets), setSlots, got, bound)
	}
}

// TestCarveSetExactFit pins carveSet's contract directly: each set is zeroed
// and capacity-capped (an append reallocates instead of writing into the
// next set), and sets carved back to back are adjacent.
func TestCarveSetExactFit(t *testing.T) {
	a := NewArena(nil)
	prev := a.carveSet(3)
	for i := 0; i < 100; i++ {
		k := 1 + i%5
		s := a.carveSet(k)
		if len(s) != k || cap(s) != k {
			t.Fatalf("set %d: len/cap %d/%d, want %d", i, len(s), cap(s), k)
		}
		for _, iv := range s {
			if iv.Lo != nil || iv.Span != nil {
				t.Fatalf("set %d: slot not zeroed", i)
			}
		}
		s[0].Seq = i + 1
		grown := append(prev, interval.Interval{Seq: -1})
		if s[0].Seq != i+1 || &grown[0] == &prev[0] {
			t.Fatalf("set %d: append to the previous set spilled into this one", i)
		}
		prev = s
	}
}
