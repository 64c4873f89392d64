package livenet

import (
	"runtime"
	"testing"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// goroutinesSettleTo polls until the process goroutine count drops to at
// most want, failing after two seconds — long enough for any straggler the
// runtime still has to park, far shorter than a leaked sleep.
func goroutinesSettleTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines = %d, want <= %d after Close; dump:\n%s",
				n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStopCancelsDelayedDeliveries is the regression test for the seed's
// sleep-goroutine leak window: with a delivery delay far longer than the
// test, the seed design left one sleeping goroutine per in-flight message
// alive after teardown returned. The wheel must instead drain everything
// before Close returns (credits cover delayed messages) and cancel cleanly, leaving the
// goroutine count where it started.
func TestStopCancelsDelayedDeliveries(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := tree.Balanced(2, 3)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 8, Seed: 11, PGlobal: 1})
	c := New(Config{
		Topology: topo, Seed: 7, Strict: true, KeepMembers: true,
		MaxDelay:  30 * time.Millisecond, // every report outlives the feed
		HbEvery:   500 * time.Microsecond,
		HbTimeout: time.Hour, // beats flow, suspicion never fires
	})
	feed(c, e, topo)
	dets := closeDets(c)
	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 8 {
		t.Fatalf("root detections = %d, want 8", roots)
	}
	goroutinesSettleTo(t, base)
}

// TestStopCancelsRepairTimers: armed seek timeouts are credited wheel
// entries, so a Close racing a repair in progress must wait the repair out
// and still cancel cleanly.
func TestStopCancelsRepairTimers(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := tree.Balanced(2, 2)
	c := New(Config{
		Topology: topo, Seed: 3, Strict: true, KeepMembers: true,
		HbEvery: 200 * time.Microsecond,
	})
	c.Kill(1) // orphans 3 and 4; each arms seek timeouts while reattaching
	c.Drain()
	c.Close()
	goroutinesSettleTo(t, base)
}

// TestSteadyStateGoroutinesBounded: under heavy in-flight load at p=127 the
// delivery plane must hold the goroutine count at pool + wheel + feeders —
// not O(in-flight messages), which under the seed design reached thousands
// on this workload (every report sleeps 5ms while the feeders keep going).
func TestSteadyStateGoroutinesBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := tree.Balanced(2, 6) // 127 nodes
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 6, Seed: 2, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 1, Strict: true, KeepMembers: true,
		MaxDelay: 5 * time.Millisecond})

	peak := 0
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	feed(c, e, topo)
	c.Drain()
	close(stop)
	<-sampled
	c.Close()
	// Pool + wheel + 127 feeder goroutines + the sampler + slack. The point
	// is the order of magnitude: tens, not thousands.
	budget := base + c.workers + 1 + topo.N() + 1 + 16
	if peak > budget {
		t.Fatalf("peak goroutines = %d, budget %d (delivery plane must not scale with in-flight messages)", peak, budget)
	}
}

// TestAdaptiveFlushMatchesUnbatched: drain-end coalescing must not change
// what is detected — same per-node detection counts as the per-report run on
// the same workload — while actually coalescing: every non-root report leaves
// inside a flush (never as an individual message), and batch feeding makes
// flushes strictly fewer than the reports they carry. The Close at the end
// also exercises the flush credit: a buffered report that did not hold a
// ledger credit could be stranded, and the detection counts would diverge.
func TestAdaptiveFlushMatchesUnbatched(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 12, Seed: 4, PGlobal: 1})

	run := func(adaptive bool) (map[int]int, map[int]Metrics) {
		c := New(Config{Topology: topo, Seed: 6, Strict: true, KeepMembers: true, AdaptiveFlush: adaptive})
		for p := range e.Streams {
			c.ObserveBatch(p, e.Streams[p])
		}
		dets := closeDets(c)
		perNode := map[int]int{}
		for _, d := range dets {
			perNode[d.Node]++
		}
		return perNode, c.Metrics()
	}

	plain, _ := run(false)
	adaptive, m := run(true)
	nonRoot := 0
	for node, want := range plain {
		if adaptive[node] != want {
			t.Errorf("node %d: adaptive %d detections, unbatched %d", node, adaptive[node], want)
		}
		if topo.Parent(node) != tree.None {
			nonRoot += want
		}
	}
	flushes, out := 0, 0
	for _, nm := range m {
		flushes += nm.BatchFlushes
		out += nm.MsgsOut
	}
	if flushes == 0 {
		t.Fatal("AdaptiveFlush run recorded no flushes")
	}
	if out > flushes {
		t.Fatalf("MsgsOut = %d > flushes = %d: reports bypassed drain-end coalescing", out, flushes)
	}
	if flushes >= nonRoot {
		t.Fatalf("flushes = %d for %d non-root reports: drain-end flush never coalesced a burst", flushes, nonRoot)
	}
}

// TestObserveBatchMatchesObserve: feeding each process's stream in one
// ObserveBatch call detects exactly what per-interval Observe calls do.
func TestObserveBatchMatchesObserve(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 10, Seed: 8, PGlobal: 1})

	counts := func(batch bool) map[int]int {
		c := New(Config{Topology: topo, Seed: 2, Strict: true, KeepMembers: true})
		if batch {
			for p := range e.Streams {
				c.ObserveBatch(p, e.Streams[p])
			}
		} else {
			feed(c, e, topo)
		}
		perNode := map[int]int{}
		for _, d := range closeDets(c) {
			perNode[d.Node]++
		}
		return perNode
	}

	one, many := counts(false), counts(true)
	for node := 0; node < topo.N(); node++ {
		if one[node] != many[node] {
			t.Errorf("node %d: ObserveBatch %d detections, Observe %d", node, many[node], one[node])
		}
	}
}

// TestMailboxBackpressure: a bound of 1 forces Observe to block and hand
// work over one message at a time; the cluster must neither deadlock nor
// drop anything.
func TestMailboxBackpressure(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 10, Seed: 9, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 8, Strict: true, KeepMembers: true, MailboxBound: 1})
	feed(c, e, topo)
	roots := 0
	for _, d := range closeDets(c) {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 10 {
		t.Fatalf("root detections = %d, want 10", roots)
	}
	for _, m := range c.Metrics() {
		if m.MailboxHighWater == 0 {
			t.Fatal("mailbox high-water mark never recorded")
		}
		break
	}
}
