package main

import (
	"fmt"
	"runtime"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/tenantplane"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// tenants-256: open loop at tenantRate tenant-rounds/s, round-robin over
// tenantCount tenants, each a 63-process balanced binary tree with a global
// pulse every round, all on one tenant-plane Multiplexer (shared scheduler,
// deficit-round-robin fairness across tenants). Failure handling is off:
// this one process hosts every node of every tenant, 63× the heartbeat
// timers one fleet member would carry.
const (
	tenantCount  = 256
	tenantHeight = 5
	tenantRate   = 500 // tenant-rounds per second, all tenants together
	// tenantPass is the length of one pass; each pass builds a new plane and
	// registers every tenant again, so a run sees several set-ups.
	tenantPass  = 1250 * time.Millisecond
	tenantGrace = 2 * time.Second
	// tenantVerify is how many tenants the members-retained pass checks.
	tenantVerify = 4
)

type tenants struct {
	seed   int64
	topo   *tree.Topology
	execs  []*workload.Execution
	expect [][]int
	fed    int // tenant-rounds per pass
	rec    *recorder
	passes int
}

func newTenants(seed int64) runner {
	topo := tree.Balanced(2, tenantHeight)
	fed := int(tenantRate * tenantPass.Seconds())
	rounds := (fed + tenantCount - 1) / tenantCount
	w := &tenants{seed: seed, topo: topo, fed: fed}
	for k := 0; k < tenantCount; k++ {
		exec := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: seed*tenantCount + int64(k), PGlobal: 1})
		w.execs = append(w.execs, exec)
		w.expect = append(w.expect, expectations(topo, subset(exec, upTo(w.roundsOf(k)))))
	}
	return w
}

// roundsOf is how many rounds tenant k is fed in one pass: one for each
// tenant-round j < fed with j mod tenantCount = k.
func (w *tenants) roundsOf(k int) int {
	return (w.fed - k + tenantCount - 1) / tenantCount
}

func (w *tenants) pass(traced bool) pass {
	w.passes++
	var p pass
	var rec *recorder
	if traced {
		w.rec = reuseRecorder(w.rec)
		rec = w.rec
	}
	sinks := make([]*rootSink, tenantCount)
	for k := range sinks {
		sinks[k] = newRootSink(w.topo, w.execs[k], w.roundsOf(k), rec, k)
	}

	heap0 := liveHeap()
	t0 := time.Now()
	plane, err := tenantplane.NewMultiplexer(tenantplane.Config{})
	if err != nil {
		panic(err)
	}
	hs := make([]*tenantplane.Handle, tenantCount)
	for k := range hs {
		hs[k], err = plane.RegisterPredicate(fmt.Sprintf("t%03d", k), tenantplane.Spec{
			Topology: w.topo, Seed: w.seed + int64(w.passes*tenantCount+k), Events: sinks[k].event,
		})
		if err != nil {
			panic(err)
		}
	}
	p.setup = time.Since(t0)
	p.registerMs = p.setup.Seconds() * 1e3 / tenantCount

	st := beginSteady()
	period := int64(time.Second / tenantRate)
	start := now()
	n := w.topo.N()
	for j := 0; j < w.fed; j++ {
		k, r := j%tenantCount, j/tenantCount
		due := start + int64(j)*period
		p.genLag = append(p.genLag, float64(sleepUntil(due))/1e6)
		sinks[k].setDue(r, due)
		t := now()
		for q := 0; q < n; q++ {
			hs[k].ObserveBatch(q, w.execs[k].Streams[q][r:r+1])
		}
		p.observeBlock += time.Duration(now() - t)
		if j == w.fed/2 {
			p.goroutines = runtime.NumGoroutine()
			p.planeGoroutines = p.goroutines
		}
	}
	p.genTime = time.Duration(now() - start)
	lastDue := start + int64(w.fed-1)*period
	for _, s := range sinks {
		s.wait(time.Duration(lastDue + int64(tenantGrace) - now()))
	}
	for _, h := range hs {
		h.Cluster().Drain()
	}
	st.end(&p)

	var last int64
	p.tenantLat = make([][]float64, tenantCount)
	for k, s := range sinks {
		lat, l, rt := s.collect(nil)
		p.tenantLat[k] = lat
		p.lat = append(p.lat, lat...)
		last = max(last, l)
		p.tally.add(rt)
		p.rounds += w.roundsOf(k)
		p.observeCluster(hs[k].Cluster(), w.topo, w.expect[k])
	}
	p.wall = time.Duration(max(last, lastDue) - start)
	p.intervals = n * w.fed
	p.retained = liveHeap() - heap0

	t1 := time.Now()
	if err := plane.Close(); err != nil {
		panic(err)
	}
	p.teardown = time.Since(t1)
	if traced {
		p.spans = rec.spans(func(_, _ int) bool { return false })
		p.droppedEvents = rec.dropped()
	}
	return p
}

// verify runs the members-retained pass on the first tenants' executions,
// each on its own in-process cluster.
func (w *tenants) verify() tally {
	var t tally
	for k := 0; k < tenantVerify; k++ {
		t.add(verifyRun(livenet.Config{Topology: w.topo, Seed: w.seed + int64(k)}, w.execs[k]))
	}
	return t
}

func (w *tenants) inputs() ([]*tree.Topology, []*workload.Execution) {
	topos := make([]*tree.Topology, len(w.execs))
	for i := range topos {
		topos[i] = w.topo
	}
	return topos, w.execs
}
