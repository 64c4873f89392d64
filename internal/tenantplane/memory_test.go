package tenantplane

import (
	"runtime"
	"testing"
	"weak"

	"hierdet/internal/interval"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// feedRounds observes rounds [lo, hi) of every process into a tenant.
func feedRounds(h *Handle, e *workload.Execution, lo, hi int) {
	for r := lo; r < hi; r++ {
		for p := range e.Streams {
			h.Observe(p, e.Streams[p][r])
		}
	}
}

// closedTenantSets registers tenant "a" beside the running tenant b, feeds
// both round by round so their detections interleave on the substrate,
// closes a and returns weak pointers to each of a's solution sets. Nothing
// of a stays strongly reachable from the caller.
func closedTenantSets(t *testing.T, p *Multiplexer, b *Handle, topo *tree.Topology, e *workload.Execution, rounds int) []weak.Pointer[interval.Interval] {
	t.Helper()
	a, err := p.RegisterPredicate("a", Spec{Topology: topo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		feedRounds(a, e, r, r+1)
		feedRounds(b, e, r, r+1)
	}
	a.Cluster().Drain()
	b.Cluster().Drain()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	var sets []weak.Pointer[interval.Interval]
	for _, d := range a.Detections() {
		if len(d.Det.Set) > 0 {
			sets = append(sets, weak.Make(&d.Det.Set[0]))
		}
	}
	return sets
}

// TestClosedTenantSetsCollectable pins where solution sets live on a shared
// substrate. Tenants share the substrate's clock arena — clocks hold no
// pointers — but carve their solution sets from per-cluster slabs: sets hold
// intervals, so a slab shared with a tenant that keeps detecting would pin
// a closed tenant's sets (and every interval and clock they reach) for as
// long as the live tenant's detections stay reachable.
func TestClosedTenantSetsCollectable(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	topo := tree.Balanced(2, 2)
	const rounds = 12
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 2 * rounds, Seed: 3, PGlobal: 1})
	b, err := p.RegisterPredicate("b", Spec{Topology: topo, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	sets := closedTenantSets(t, p, b, topo, e, rounds)
	if len(sets) < rounds {
		t.Fatalf("closed tenant made %d detections, want at least %d", len(sets), rounds)
	}
	feedRounds(b, e, rounds, 2*rounds) // b keeps detecting, carving new sets
	b.Cluster().Drain()

	runtime.GC()
	runtime.GC()
	live := 0
	for _, w := range sets {
		if w.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d of the closed tenant's %d solution sets are still reachable", live, len(sets))
	}
	if m := b.Cluster().Metrics()[0]; m.Detections < rounds {
		t.Errorf("live tenant's root made %d detections, want at least %d", m.Detections, rounds)
	}
}
