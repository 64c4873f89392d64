package main

import (
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// gateRun feeds a small mixed workload through an in-process cluster with
// the benchmark's sink and returns the gate's tally. With drop set, the
// Events stream loses the first full-span root detection before the sink
// sees it — a detection the program made but the benchmark never received.
func gateRun(t *testing.T, drop bool) tally {
	t.Helper()
	topo := tree.Balanced(2, 3)
	exec := workload.Generate(workload.Config{Topology: topo, Rounds: 16, Seed: 5, PGlobal: 0.5, PGroup: 0.3, PSubset: 0.2})
	sink := newRootSink(topo, exec, len(exec.Rounds), nil, 0)
	if sink.want == 0 {
		t.Fatal("workload has no global round; pick another seed")
	}
	var dropped atomic.Bool
	n := topo.N()
	c := livenet.New(livenet.Config{Topology: topo, Seed: 1, HbEvery: hbEvery, Events: func(e obsv.Event) {
		if drop && e.Kind == obsv.SolutionFound && e.AtRoot && len(e.Agg.Span) == n && dropped.CompareAndSwap(false, true) {
			return
		}
		sink.event(e)
	}})
	for r := range exec.Rounds {
		sink.setDue(r, now())
		for p := 0; p < n; p++ {
			c.ObserveBatch(p, exec.Streams[p][r:r+1])
		}
	}
	sink.wait(2 * time.Second)
	c.Drain()
	var p pass
	_, _, rt := sink.collect(nil)
	p.tally.add(rt)
	p.observeCluster(c, topo, expectations(topo, exec))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return gate([]pass{p}, verifyRun(livenet.Config{Topology: topo, Seed: 2}, exec))
}

func TestGatePassesCleanRun(t *testing.T) {
	g := gateRun(t, false)
	if !g.correct() || g.failed() != 0 {
		t.Fatalf("clean run failed the gate: %+v", g)
	}
	if g.expected == 0 {
		t.Fatal("gate expected no detections")
	}
}

func TestGateCatchesDroppedDetection(t *testing.T) {
	g := gateRun(t, true)
	if g.correct() {
		t.Fatalf("gate passed a run with a dropped root detection: %+v", g)
	}
	if g.missing != 1 || g.failed() != 1 {
		t.Fatalf("want exactly one missing detection, got %+v", g)
	}
}

func TestGateCountsNodeMismatch(t *testing.T) {
	var g tally
	g.addCount(10, 9)
	g.addCount(4, 5)
	if g.correct() || g.missing != 1 || g.spurious != 1 || g.expected != 14 {
		t.Fatalf("node count mismatch not caught: %+v", g)
	}
	// Detections lost after a false suspicion stay failures, but the run's
	// output is not wrong; an unsound detection always is.
	g.suspicions = 1
	if !g.correct() || g.failed() != 2 {
		t.Fatalf("suspected run: %+v", g)
	}
	g.unsound = 1
	if g.correct() {
		t.Fatalf("unsound detection passed the gate: %+v", g)
	}
}
