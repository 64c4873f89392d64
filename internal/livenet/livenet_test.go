package livenet

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/trace"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// feed pushes an execution's streams into the cluster, one goroutine per
// process (per-process order preserved, cross-process order raced).
func feed(c *Cluster, e *workload.Execution, topo *tree.Topology) {
	var wg sync.WaitGroup
	for p := range e.Streams {
		if !topo.Alive(p) {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, iv := range e.Streams[p] {
				c.Observe(p, iv)
				time.Sleep(10 * time.Microsecond)
			}
		}(p)
	}
	wg.Wait()
}

// closeDets closes c and returns its final detections.
func closeDets(c *Cluster) []Detection {
	c.Close()
	return c.Detections()
}

func TestLiveClusterDetectsAllPulses(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 15, Seed: 1, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 3, Strict: true, KeepMembers: true})
	feed(c, e, topo)
	dets := closeDets(c)

	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
			if !interval.OverlapAll(interval.BaseIntervals(d.Det.Agg)) {
				t.Fatal("false detection")
			}
		}
	}
	if roots != 15 {
		t.Fatalf("root detections = %d, want 15", roots)
	}
}

func TestLiveClusterMatchesFlatReferenceOnChaos(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		topo := tree.Balanced(2, 2)
		e := workload.GenerateChaotic(workload.ChaoticConfig{N: 7, Steps: 700, Seed: int64(trial)})
		c := New(Config{Topology: topo, Seed: int64(trial), Strict: true, KeepMembers: true})
		feed(c, e, topo)
		dets := closeDets(c)

		perNode := map[int]int{}
		for _, d := range dets {
			perNode[d.Node]++
		}
		for node := 0; node < topo.N(); node++ {
			span := topo.Subtree(node)
			sort.Ints(span)
			want := trace.FlatCount(e, span, int64(trial)+5)
			if perNode[node] != want {
				t.Errorf("trial %d node %d: live %d vs flat %d", trial, node, perNode[node], want)
			}
		}
	}
}

func TestLiveClusterGroupLevel(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 20, Seed: 2, PGroup: 1})
	c := New(Config{Topology: topo, Seed: 5, Strict: true, KeepMembers: true})
	feed(c, e, topo)
	dets := closeDets(c)

	// Group rounds never satisfy the global predicate...
	for _, d := range dets {
		if d.AtRoot && len(d.Det.Agg.Span) == 7 {
			t.Fatal("global detection from group-only workload")
		}
	}
	// ...but inner nodes see their subtree's occurrences.
	inner := 0
	for _, d := range dets {
		if d.Node == 1 || d.Node == 2 {
			inner++
		}
	}
	if inner == 0 {
		t.Fatal("no group-level detections at inner nodes")
	}
}

func TestLiveClusterHeavyReordering(t *testing.T) {
	topo := tree.Balanced(2, 3)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 10, Seed: 3, PGlobal: 1})
	// 2ms max delay with 10µs feed pacing: reports from one link overtake
	// each other constantly; Strict panics if resequencing ever fails.
	c := New(Config{Topology: topo, Seed: 9, Strict: true, KeepMembers: true, MaxDelay: 2 * time.Millisecond})
	feed(c, e, topo)
	dets := closeDets(c)
	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 10 {
		t.Fatalf("root detections = %d, want 10", roots)
	}
}

func TestLiveClusterValidation(t *testing.T) {
	topo := tree.Balanced(2, 1)
	c := New(Config{Topology: topo})
	defer c.Close()
	for name, f := range map[string]func(){
		"nil-topo":    func() { New(Config{}) },
		"unknown-obs": func() { c.Observe(99, interval.Interval{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestNegativeMaxDelayRejected: a negative delay bound would panic a worker
// inside the delay draw on the first report; New refuses it up front with a
// message naming the field.
func TestNegativeMaxDelayRejected(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with negative MaxDelay did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "MaxDelay") {
			t.Fatalf("panic = %v, want a message naming MaxDelay", r)
		}
	}()
	New(Config{Topology: tree.Balanced(2, 2), MaxDelay: -time.Millisecond})
}
