package tenantplane

import (
	"context"
	"sync"
	"testing"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// registerAndFeed puts one tenant on the plane and runs a small workload
// through it, returning the expected root-detection count.
func registerAndFeed(t *testing.T, p *Multiplexer, name string, seed int64) int {
	t.Helper()
	const rounds = 3
	topo := tree.Balanced(2, 2)
	h, err := p.RegisterPredicate(name, Spec{
		Topology: tree.Balanced(2, 2), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: seed, PGlobal: 1})
	for proc := range e.Streams {
		h.ObserveBatch(proc, e.Streams[proc])
	}
	return rounds
}

// TestMultiplexerCloseIdempotent: Close stops every tenant and publishes
// their detections; a second Close is a no-op returning nil, and
// Detections keeps serving the same result.
func TestMultiplexerCloseIdempotent(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := registerAndFeed(t, p, "alpha", 5)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	first := p.Detections()
	roots := 0
	for _, d := range first["alpha"] {
		if d.AtRoot {
			roots++
		}
	}
	if roots != rounds {
		t.Fatalf("root detections = %d, want %d", roots, rounds)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := p.Detections(); len(got) != 1 || len(got["alpha"]) != len(first["alpha"]) {
		t.Fatalf("Detections after second Close = %d tenants, alpha %d; want 1, %d",
			len(got), len(got["alpha"]), len(first["alpha"]))
	}
	if p.Tenant("alpha") != nil {
		t.Fatal("tenant still registered after Close")
	}
}

// TestMultiplexerShutdown: a clean Shutdown equals Close; Detections serves
// the result afterwards.
func TestMultiplexerShutdown(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := registerAndFeed(t, p, "beta", 7)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after closed = %v, want nil", err)
	}
	roots := 0
	for _, d := range p.Detections()["beta"] {
		if d.AtRoot {
			roots++
		}
	}
	if roots != rounds {
		t.Fatalf("root detections = %d, want %d", roots, rounds)
	}
}

// TestMultiplexerShutdownDeadline: an expired deadline reopens the plane —
// the remaining tenants keep running, registration stays legal, and a later
// unbounded Shutdown finishes the job.
func TestMultiplexerShutdownDeadline(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A tenant with a long MaxDelay parks its reports on the shared wheel,
	// each holding its ledger credit until delivery, so the bounded
	// Shutdown cannot quiesce in time. The delays come from the seeded
	// per-node generator: with this seed the first report waits well over
	// 100ms.
	h, err := p.RegisterPredicate("gamma", Spec{
		Topology: tree.Chain(2), Seed: 3, MaxDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := workload.Generate(workload.Config{Topology: tree.Chain(2), Rounds: 2, Seed: 3, PGlobal: 1})
	for proc := range e.Streams {
		h.ObserveBatch(proc, e.Streams[proc])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("bounded Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if p.Detections() != nil {
		t.Fatal("Detections non-nil after failed Shutdown")
	}
	// Plane reopened: registering another tenant must work.
	registerAndFeed(t, p, "delta", 11)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("unbounded Shutdown: %v", err)
	}
	out := p.Detections()
	if _, ok := out["gamma"]; !ok {
		t.Fatal("tenant gamma missing from final detections")
	}
	if _, ok := out["delta"]; !ok {
		t.Fatal("tenant delta missing from final detections")
	}
}

// TestMultiplexerEventsSubscription: Events mirrors Config.Events without
// construction-time presence — tenant-annotated cluster events arrive,
// cancel detaches, and a second subscriber is independent.
func TestMultiplexerEventsSubscription(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var mu sync.Mutex
	counts := map[obsv.EventKind]int{}
	tenants := map[string]bool{}
	cancel := p.Events(func(e obsv.Event) {
		mu.Lock()
		counts[e.Kind]++
		tenants[e.Tenant] = true
		mu.Unlock()
	})

	registerAndFeed(t, p, "eve", 13)
	h := p.Tenant("eve")
	h.Cluster().Drain()

	mu.Lock()
	if counts[obsv.TenantRegistered] != 1 {
		t.Fatalf("TenantRegistered events = %d, want 1", counts[obsv.TenantRegistered])
	}
	if counts[obsv.SolutionFound] == 0 {
		t.Fatal("no SolutionFound events reached the subscriber")
	}
	if !tenants["eve"] {
		t.Fatal("cluster events not annotated with the tenant id")
	}
	solBefore := counts[obsv.SolutionFound]
	mu.Unlock()

	cancel()
	cancel() // double-cancel is harmless

	// After cancel, a fresh workload's events must not arrive.
	e := workload.Generate(workload.Config{Topology: tree.Balanced(2, 2), Rounds: 2, Seed: 99, PGlobal: 1})
	for proc := range e.Streams {
		h.ObserveBatch(proc, e.Streams[proc])
	}
	h.Cluster().Drain()
	mu.Lock()
	if counts[obsv.SolutionFound] != solBefore {
		t.Fatalf("events after cancel: SolutionFound %d → %d", solBefore, counts[obsv.SolutionFound])
	}
	mu.Unlock()
}
