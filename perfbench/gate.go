package main

import (
	"hierdet/internal/interval"
	"hierdet/internal/livenet"
	"hierdet/internal/trace"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// tally is the correctness gate's account of one or more passes: how many
// detections were expected (summed over every node) and how many were
// missing, spurious or unsound, plus the failure detector's suspicions.
type tally struct {
	expected, missing, spurious, unsound int
	suspicions                           int
}

func (t *tally) add(o tally) {
	t.expected += o.expected
	t.missing += o.missing
	t.spurious += o.spurious
	t.unsound += o.unsound
	t.suspicions += o.suspicions
}

// addCount judges one node: got detections against want.
func (t *tally) addCount(want, got int) {
	t.expected += want
	t.missing += max(0, want-got)
	t.spurious += max(0, got-want)
}

func (t tally) failed() int { return t.missing + t.spurious + t.unsound }

func (t tally) failFrac() float64 { return ratio(float64(t.failed()), float64(t.expected)) }

// correct is the gate's verdict. An unsound detection always fails it, and
// so does any missing or spurious detection in a run where the failure
// detector never fired. Detections lost or moved by a false suspicion are
// the paper's degraded mode (§III-F): they are counted in failed and in
// detect_fail_frac, not excused, but they do not make the output wrong.
func (t tally) correct() bool {
	return t.unsound == 0 && (t.missing+t.spurious == 0 || t.suspicions > 0)
}

// gate sums the passes' tallies with the verify pass's.
func gate(passes []pass, verify tally) tally {
	t := verify
	for _, p := range passes {
		t.add(p.tally)
	}
	return t
}

// expectations returns, per node id, how many detections the node's
// subtree must report over exec.
func expectations(topo *tree.Topology, exec *workload.Execution) []int {
	out := make([]int, topo.N())
	for _, id := range topo.AliveNodes() {
		out[id] = exec.ExpectedDetections(topo.Subtree(id))
	}
	return out
}

// subset is exec restricted to the given rounds, in order. Every process
// has one interval per round, so the result is itself an execution: each
// stream still succeeds itself, and the ground truth follows the rounds.
func subset(exec *workload.Execution, rounds []int) *workload.Execution {
	out := &workload.Execution{N: exec.N, Streams: make([][]interval.Interval, exec.N)}
	for _, r := range rounds {
		out.Rounds = append(out.Rounds, exec.Rounds[r])
	}
	for p, s := range exec.Streams {
		for _, r := range rounds {
			out.Streams[p] = append(out.Streams[p], s[r])
		}
	}
	return out
}

// upTo lists the rounds 0..k-1.
func upTo(k int) []int {
	rs := make([]int, k)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// verifyRun is the untimed members-retained pass: the same tree and
// execution on an in-process cluster with Verify settings (succession
// checks and solution-set retention), every detection expanded to its base
// intervals and checked against Eq. 2 by trace.CheckDetection, and every
// node's count checked against the execution. cfg supplies the workload's
// remaining settings; Topology, Strict and KeepMembers are set here.
func verifyRun(cfg livenet.Config, exec *workload.Execution) tally {
	topo := cfg.Topology
	cfg.Strict, cfg.KeepMembers = true, true
	c := livenet.New(cfg)
	for r := range exec.Rounds {
		for p := 0; p < exec.N; p++ {
			c.ObserveBatch(p, exec.Streams[p][r:r+1])
		}
	}
	if err := c.Close(); err != nil {
		panic(err)
	}
	var t tally
	got := make([]int, topo.N())
	for _, d := range c.Detections() {
		got[d.Node]++
		if trace.CheckDetection(d.Det) != nil {
			t.unsound++
		}
	}
	for id, want := range expectations(topo, exec) {
		t.addCount(want, got[id])
	}
	return t
}
