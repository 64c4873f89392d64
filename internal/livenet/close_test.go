package livenet

import (
	"context"
	"testing"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestCloseIdempotent: Close followed by Detections yields the full ordered
// detection list, and a second Close is a no-op that returns nil and leaves
// the list untouched.
func TestCloseIdempotent(t *testing.T) {
	topo := tree.Balanced(2, 2)
	const rounds = 6
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 77, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 77, Strict: true, KeepMembers: true})
	for p := range e.Streams {
		c.ObserveBatch(p, e.Streams[p])
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	first := c.Detections()
	roots := 0
	for _, d := range first {
		if d.AtRoot {
			roots++
		}
	}
	if roots != rounds {
		t.Fatalf("root detections = %d, want %d", roots, rounds)
	}

	// Close again: nil, and Detections is still the same final list.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if again := c.Detections(); len(again) != len(first) || &again[0] != &first[0] {
		t.Fatal("second Close changed the detection list")
	}
}

// TestDetectionsBeforeStop: the accessor answers nil until teardown has
// produced the final ordered list.
func TestDetectionsBeforeStop(t *testing.T) {
	c := New(Config{Topology: tree.Star(3)})
	if d := c.Detections(); d != nil {
		t.Fatalf("Detections before teardown = %d entries, want nil", len(d))
	}
	c.Close()
	if c.Detections() == nil {
		// A teardown with zero detections returns the empty (non-nil is not
		// promised) list; only panic-free access matters here.
		t.Log("empty teardown returned nil detections")
	}
}

// TestShutdownDeadline: a Shutdown whose context expires while credits are
// still pending reports ctx.Err(), leaves the cluster running (Observe
// still legal, no panic), and a later unbounded Shutdown completes with the
// full detection set.
func TestShutdownDeadline(t *testing.T) {
	topo := tree.Chain(2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 4, Seed: 9, PGlobal: 1})
	// A long MaxDelay parks child 1's reports on the wheel, each holding its
	// ledger credit until delivery, so quiescence is not reachable within
	// the short deadline. The delays are drawn from the seeded per-node
	// generator: with this seed the first phase's second report waits well
	// over 100ms.
	c := New(Config{Topology: topo, Seed: 9, Strict: true, KeepMembers: true,
		MaxDelay: time.Second})
	for p := range e.Streams {
		c.ObserveBatch(p, e.Streams[p][:2])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown under deadline = %v, want context.DeadlineExceeded", err)
	}

	// Still running: feeding more work must not panic.
	for p := range e.Streams {
		c.ObserveBatch(p, e.Streams[p][2:])
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("unbounded Shutdown: %v", err)
	}
	roots := 0
	for _, d := range c.Detections() {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 4 {
		t.Fatalf("root detections after resumed shutdown = %d, want 4", roots)
	}
	// Shutdown after stopped: nil.
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after stopped = %v, want nil", err)
	}
}
