package vclock

import "sync"

// Arena is a struct-of-arrays source for the clocks detector nodes publish:
// instead of one heap object per clock, clocks are carved sequentially out of
// large contiguous []uint32 slabs. Two things fall out of the flat layout:
//
//   - the fused comparison loops (CompareLess) walk contiguous memory — the
//     bounds of one aggregate sit in one cache-line run instead of two
//     scattered allocations, and recent aggregates sit next to each other,
//     so the elimination loop's head-to-head checks stop taking a cache miss
//     per clock;
//
//   - allocation cost amortizes: one garbage-collected object per slab
//     instead of one per aggregate. At p=1023 a bounds pair is 8 KiB, and a
//     per-detection make+memmove was the single largest line in the
//     scale-lane CPU profile.
//
// Carving is exact-fit: AllocPair takes exactly one Lo/Hi pair, so the only
// unused memory an Arena ever holds is the tail of its current slab. Slabs
// are sized in pairs of the requesting width, growing geometrically from
// arenaFirstPairs to arenaMaxPairs (256 KiB at n=1023, 16 KiB at n=63): a
// light user strands little, a heavy one converges on the large-slab rate
// after a few doublings. One Arena is meant to serve many nodes — a cluster's
// every detector, or every tenant on a shared substrate — so that tail exists
// once per arena instead of once per node. Clocks hold no pointers, so a slab
// shared across owners with different lifetimes pins raw words only.
//
// Clocks handed out are ordinary VCs: they stay valid forever (a slab is
// garbage-collected only when every clock carved from it is unreachable) and
// must be treated as immutable once published, exactly like every other
// bound in the detector. An Arena is safe for concurrent use; the mutex
// guards only the bump pointer, and each carved pair belongs to its caller.
type Arena struct {
	mu    sync.Mutex
	slab  []uint32
	off   int
	pairs int // pairs the next slab holds; zero means arenaFirstPairs
}

// Slab sizing, in Lo/Hi pairs of the width that opens the slab.
const (
	arenaFirstPairs = 2
	arenaMaxPairs   = 32
)

// NewArena returns an empty clock arena. The zero Arena is ready to use too.
func NewArena() *Arena { return &Arena{} }

// AllocPair carves one adjacent Lo/Hi pair of n-component clocks — the
// backing layout of an aggregated interval's bounds. Both clocks are zeroed
// and capacity-capped at n, with Lo immediately followed by Hi, so an append
// to either reallocates instead of spilling into a neighbour.
func (a *Arena) AllocPair(n int) (lo, hi VC) {
	span := 2 * n
	a.mu.Lock()
	if a.off+span > len(a.slab) {
		pairs := max(a.pairs, arenaFirstPairs)
		a.slab = make([]uint32, span*pairs)
		a.off = 0
		a.pairs = min(2*pairs, arenaMaxPairs)
	}
	base := a.slab[a.off : a.off+span : a.off+span]
	a.off += span
	a.mu.Unlock()
	return VC(base[:n:n]), VC(base[n:span:span])
}
