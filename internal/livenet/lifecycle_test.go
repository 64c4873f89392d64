package livenet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestObserveStopRace hammers the documented lifecycle contract under the
// race detector: feeders call Observe in a tight loop while Close lands at an
// arbitrary moment. Every Observe must either be fully delivered (and its
// whole cascade drained by Close) or panic with the documented message —
// never send on a closed channel, never lose a cascade in flight. The seed
// design (unsynchronized stopped flag + sleep-polling on an atomic counter)
// fails this test; the credit-ledger design passes by construction.
func TestObserveStopRace(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		topo := tree.Balanced(2, 2)
		e := workload.GenerateChaotic(workload.ChaoticConfig{N: 7, Steps: 400, Seed: int64(trial)})
		c := New(Config{Topology: topo, Seed: int64(trial), Strict: true, KeepMembers: true,
			MaxDelay: 50 * time.Microsecond})

		var observed, rejected atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < topo.N(); p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if r != "livenet: Observe after Close" {
							panic(r)
						}
						rejected.Add(1)
					}
				}()
				for _, iv := range e.Streams[p] {
					c.Observe(p, iv)
					observed.Add(1)
				}
			}(p)
		}
		// Let the feeders race the shutdown at a different phase each trial.
		time.Sleep(time.Duration(trial*20) * time.Microsecond)
		dets := closeDets(c)
		wg.Wait()

		// Whatever was accepted before Close was fully drained: no cascade is
		// still running, so the detection slice is complete and immutable.
		if observed.Load() == 0 && rejected.Load() == 0 {
			t.Fatalf("trial %d: no feeder made progress", trial)
		}
		_ = dets
	}
}

// TestDrainWaitsForCascade: after Drain returns, every accepted observation
// has propagated all the way to the root — the phase boundary the failover
// workflow (feed, Drain, Kill) depends on.
func TestDrainWaitsForCascade(t *testing.T) {
	topo := tree.Balanced(2, 2)
	const rounds = 10
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 4, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 7, Strict: true, KeepMembers: true,
		MaxDelay: time.Millisecond})
	feedRange(c, e, 0, rounds)
	c.Drain()
	// All root detections must already be recorded — no settling time, no
	// reliance on Close.
	m := c.Metrics()
	roots := m[0].Detections
	if roots != rounds {
		t.Fatalf("root detections after Drain = %d, want %d", roots, rounds)
	}
	c.Close()
}

// TestKillIdempotent: killing twice is a no-op, killing after Close panics.
func TestKillIdempotent(t *testing.T) {
	topo := tree.Balanced(2, 1)
	c := New(Config{Topology: topo, HbEvery: time.Millisecond})
	if n := c.Kill(1); n != 0 {
		t.Fatalf("Kill(leaf) orphans = %d, want 0", n)
	}
	if n := c.Kill(1); n != 0 {
		t.Fatalf("second Kill = %d, want 0", n)
	}
	c.Close()
	defer func() {
		if recover() == nil {
			t.Error("Kill after Close did not panic")
		}
	}()
	c.Kill(2)
}

// TestKillRequiresHeartbeats: without heartbeats nobody would ever detect
// the crash, so Kill refuses to inject one.
func TestKillRequiresHeartbeats(t *testing.T) {
	c := New(Config{Topology: tree.Balanced(2, 1)})
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Error("Kill without heartbeats did not panic")
		}
	}()
	c.Kill(1)
}
