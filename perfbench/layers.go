package main

import (
	"math/rand"
	"sort"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/tree"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
	"hierdet/internal/workload"
)

// Isolated layer probes: each times calls into one layer's public
// functions on inputs taken from the workload's own execution, so the
// ledger can set a layer's cost beside the end-to-end CPU per interval.

const (
	// probeReps is how many timed repetitions each probe makes; the
	// reported figure is their median.
	probeReps = 5
	// probeSample caps the reports, solution sets and clock pairs a
	// kernel probe cycles through.
	probeSample = 4096
)

// layerProbes runs every isolated probe over the workload's trees and
// executions and stores the per-layer costs in m.
func layerProbes(m metrics, topos []*tree.Topology, execs []*workload.Execution) {
	var out replayed
	intervals := 0
	for i, exec := range execs {
		out.add(replayCore(topos[i], exec, true))
		intervals += exec.TotalIntervals()
	}
	m["core.replay_ns_per_interval"] = timeReps(func() int {
		for i, exec := range execs {
			replayCore(topos[i], exec, false)
		}
		return intervals
	})
	reports := sample(out.reports)
	sets := sample(out.sets)

	var buf []byte
	var bytes int
	frames := make([][]byte, len(reports))
	for i, iv := range reports {
		buf = wire.AppendReportV2(buf[:0], wire.Report{Iv: iv, LinkSeq: i}, nil)
		frames[i] = append([]byte(nil), buf...)
		bytes += len(buf)
	}
	m["wire.bytes_per_report"] = ratio(float64(bytes), float64(len(reports)))
	m["wire.encode_ns_per_report"] = timeReps(func() int {
		for i, iv := range reports {
			buf = wire.AppendReportV2(buf[:0], wire.Report{Iv: iv, LinkSeq: i}, nil)
		}
		return len(reports)
	})
	var rep wire.Report
	m["wire.decode_ns_per_report"] = timeReps(func() int {
		for _, f := range frames {
			if err := wire.DecodeReportInto(f, &rep, nil); err != nil {
				panic(err)
			}
		}
		return len(frames)
	})

	m["interval.aggregate_ns_per_set"] = timeReps(func() int {
		for i, s := range sets {
			interval.Aggregate(s, s[0].Origin, i, false)
		}
		return len(sets)
	})

	aLo, aHi, bLo, bHi := clockPairs(execs)
	m["vclock.compare_ns"] = timeReps(func() int {
		for i := range aLo {
			x, y := vclock.CompareLess(aLo[i], bHi[i], bLo[i], aHi[i])
			if x != y {
				kernelSink++
			}
		}
		return len(aLo)
	})
	m["vclock.sum_ns"] = timeReps(func() int {
		for _, v := range aLo {
			kernelSink += v.Sum()
		}
		return len(aLo)
	})
}

// kernelSink receives the timed kernels' results so the compiler keeps the
// calls.
var kernelSink uint64

// timeReps runs f probeReps times and returns the median ns per operation
// (f returns how many operations it made).
func timeReps(f func() int) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t := time.Now()
		ops := f()
		xs[i] = float64(time.Since(t).Nanoseconds()) / float64(max(ops, 1))
	}
	return median(xs)
}

// sample returns up to probeSample elements of xs, evenly spread.
func sample[T any](xs []T) []T {
	if len(xs) <= probeSample {
		return xs
	}
	out := make([]T, probeSample)
	for i := range out {
		out[i] = xs[i*len(xs)/probeSample]
	}
	return out
}

// clockPairs draws interval pairs from the executions at the workload's n:
// the four clocks the detection engine's CompareLess kernel takes. The
// clocks are copied so the kernels stream contiguous memory, as they do
// over a node's queues, rather than chasing clocks across the executions.
func clockPairs(execs []*workload.Execution) (aLo, aHi, bLo, bHi []vclock.VC) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < probeSample; i++ {
		e := execs[r.Intn(len(execs))]
		rounds := len(e.Streams[0])
		a := e.Streams[r.Intn(e.N)][r.Intn(rounds)]
		b := e.Streams[r.Intn(e.N)][r.Intn(rounds)]
		aLo, aHi = append(aLo, a.Lo.Clone()), append(aHi, a.Hi.Clone())
		bLo, bHi = append(bLo, b.Lo.Clone()), append(bHi, b.Hi.Clone())
	}
	return aLo, aHi, bLo, bHi
}

// replayed is what a bottom-up replay produced: the aggregates non-root
// nodes reported upward, and every solution set.
type replayed struct {
	reports []interval.Interval
	sets    [][]interval.Interval
}

func (r *replayed) add(o replayed) {
	r.reports = append(r.reports, o.reports...)
	r.sets = append(r.sets, o.sets...)
}

// replayCore runs exec through one core.Node per process, single-threaded
// and round-synchronous: in each round every node, deepest first, takes its
// own interval and then the aggregates its children reported in that round,
// one OnIntervals batch per source. The nodes run the partitioned engine the
// live runtime uses, without a comparison pool. With collect set it returns
// the reports and solution sets; otherwise it only does the work, so it can
// be timed.
func replayCore(topo *tree.Topology, exec *workload.Execution, collect bool) replayed {
	ids := topo.AliveNodes()
	sort.SliceStable(ids, func(i, j int) bool { return topo.Depth(ids[i]) > topo.Depth(ids[j]) })
	nodes := make([]*core.Node, topo.N())
	for _, id := range ids {
		nodes[id] = core.NewNode(id, core.Config{N: exec.N, Parallel: true}, true)
		for _, c := range topo.Children(id) {
			nodes[id].AddChild(c)
		}
	}
	out := make([][]interval.Interval, topo.N())
	var res replayed
	for r := range len(exec.Streams[0]) {
		for _, id := range ids {
			nd := nodes[id]
			dets := nd.OnIntervals(id, exec.Streams[id][r:r+1])
			for _, c := range topo.Children(id) {
				if len(out[c]) > 0 {
					dets = append(dets, nd.OnIntervals(c, out[c])...)
					out[c] = out[c][:0]
				}
			}
			atRoot := topo.Parent(id) == tree.None
			for _, d := range dets {
				if collect {
					res.sets = append(res.sets, d.Set)
				}
				if atRoot {
					continue
				}
				out[id] = append(out[id], d.Agg)
				if collect {
					res.reports = append(res.reports, d.Agg)
				}
			}
		}
	}
	return res
}
