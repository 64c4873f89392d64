package core

import (
	"sync"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// Arena is the publication arena of one detector instance — every node of a
// live cluster, or a node built alone. Everything the parallel engine
// publishes with a detection comes out of it: aggregate bounds from a
// vclock.Arena, solution sets from a slab of intervals. Both carve exact-fit,
// so the only slack is the tail of each current slab, once per arena instead
// of once per node. An Arena is safe for concurrent use by all of its nodes.
//
// The two halves differ in how far they may be shared. Clocks hold no
// pointers, so the clock arena can serve many clusters (a shared scheduler
// substrate hands one to every tenant): a slab a live tenant still pins
// keeps only raw words of a closed one. Solution sets hold intervals —
// clocks, spans, members — so a set slab shared across clusters would let
// one tenant's detections pin another's interval graph; set slabs are
// therefore private to their Arena, and an Arena is built per cluster.
type Arena struct {
	clocks *vclock.Arena

	mu   sync.Mutex
	sets []interval.Interval // current set slab; len counts carved slots
	next int                 // capacity of the next set slab; zero means setSlabFirst
}

// Set-slab sizing, in intervals. A set is d+1 intervals, so a full slab
// serves a couple of dozen detections at typical fanouts, and the tail a
// cluster strands stays under 10 KiB — which matters on a substrate hosting
// hundreds of clusters, each with its own set slab.
const (
	setSlabFirst = 8
	setSlabMax   = 64
)

// NewArena returns a publication arena whose aggregate bounds come from
// clocks, or from a private clock arena when clocks is nil.
func NewArena(clocks *vclock.Arena) *Arena {
	if clocks == nil {
		clocks = vclock.NewArena()
	}
	return &Arena{clocks: clocks}
}

// carveSet hands out k zeroed, capacity-capped interval slots for one
// solution set. Solution sets escape into Detections, and at production
// rates one make per detection was measurable; a set slab is retained only
// as long as some detection carved from it.
func (a *Arena) carveSet(k int) []interval.Interval {
	a.mu.Lock()
	if len(a.sets)+k > cap(a.sets) {
		c := max(a.next, setSlabFirst)
		a.next = min(2*c, setSlabMax)
		a.sets = make([]interval.Interval, 0, max(c, k))
	}
	base := len(a.sets)
	a.sets = a.sets[:base+k]
	out := a.sets[base : base+k : base+k]
	a.mu.Unlock()
	return out
}
