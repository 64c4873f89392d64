package main

import (
	"runtime"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// bulk-1023: closed loop on one in-process cluster, a balanced binary tree
// of height 9 (1023 processes) under mixed rounds. Each pass builds a fresh
// cluster and feeds bulkRounds rounds, one ObserveBatch per process per
// round, as fast as backpressure admits. Every interval carries two
// 1023-component clocks (about 8 KB), so the pass length bounds memory.
const (
	bulkHeight = 9
	bulkRounds = 24
	// bulkPassesPerExec is how many passes reuse one execution before the
	// next is generated from the following derived seed. Each round is
	// global, group or subset at random, so one 24-round execution's mix
	// would otherwise set the whole run's figures; rotating keeps only one
	// execution live at a time.
	bulkPassesPerExec = 6
	// hbEvery is the deployment default heartbeat period (timeout 8×).
	hbEvery = 5 * time.Millisecond
)

type bulk struct {
	seed   int64
	topo   *tree.Topology
	exec   *workload.Execution
	expect []int
	execs  int // executions generated so far
	used   int // passes made on exec
	rec    *recorder
	passes int
}

func newBulk(seed int64) runner {
	b := &bulk{seed: seed, topo: tree.Balanced(2, bulkHeight)}
	b.generate()
	return b
}

// generate replaces the execution with the next one derived from the seed.
func (b *bulk) generate() {
	b.exec = nil // collectable while the next one is generated
	b.exec = workload.Generate(workload.Config{
		Topology: b.topo, Rounds: bulkRounds, Seed: b.seed*1000 + int64(b.execs),
		PGlobal: 0.5, PGroup: 0.3, PSubset: 0.2,
	})
	b.expect = expectations(b.topo, b.exec)
	b.execs++
	b.used = 0
}

// nextConfig is the cluster configuration of the next pass, which gets its
// own delivery seed.
func (b *bulk) nextConfig() livenet.Config {
	b.passes++
	return livenet.Config{Topology: b.topo, Seed: b.seed + int64(b.passes), HbEvery: hbEvery}
}

func (b *bulk) pass(traced bool) pass {
	if b.used == bulkPassesPerExec {
		b.generate()
	}
	b.used++
	var p pass
	var rec *recorder
	if traced {
		b.rec = reuseRecorder(b.rec)
		rec = b.rec
	}
	n := b.topo.N()
	sink := newRootSink(b.topo, b.exec, bulkRounds, rec, 0)
	cfg := b.nextConfig()
	cfg.Events = sink.event

	heap0 := liveHeap()
	t0 := time.Now()
	c := livenet.New(cfg)
	p.setup = time.Since(t0)

	st := beginSteady()
	start := now()
	for r := 0; r < bulkRounds; r++ {
		sink.setDue(r, now())
		for q := 0; q < n; q++ {
			t := now()
			c.ObserveBatch(q, b.exec.Streams[q][r:r+1])
			p.observeBlock += time.Duration(now() - t)
		}
		if r == bulkRounds/2 {
			p.goroutines = runtime.NumGoroutine()
		}
	}
	p.genTime = time.Duration(now() - start)
	sink.wait(30 * time.Second)
	c.Drain()
	drained := now()
	st.end(&p)

	var last int64
	var rt tally
	p.lat, last, rt = sink.collect(nil)
	if last == 0 { // no global round, so no full-span detection to wait for
		last = drained
	}
	p.wall = time.Duration(last - start)
	p.tally.add(rt)
	p.intervals = n * bulkRounds
	p.rounds = bulkRounds
	p.observeCluster(c, b.topo, b.expect)
	p.retained = liveHeap() - heap0

	t1 := time.Now()
	if err := c.Close(); err != nil {
		panic(err)
	}
	p.teardown = time.Since(t1)
	if traced {
		p.spans = rec.spans(func(_, _ int) bool { return false })
		p.droppedEvents = rec.dropped()
	}
	return p
}

// verify runs the members-retained pass on the first round of each kind.
// Checking a detection expands it to its base intervals and compares them
// pairwise, so a global round at n=1023 costs about 2·n³ clock components:
// one round of each kind keeps the pass to seconds.
func (b *bulk) verify() tally {
	var rounds []int
	seen := map[workload.Kind]bool{}
	for r, rd := range b.exec.Rounds {
		if !seen[rd.Kind] {
			seen[rd.Kind] = true
			rounds = append(rounds, r)
		}
	}
	return verifyRun(b.nextConfig(), subset(b.exec, rounds))
}

func (b *bulk) inputs() ([]*tree.Topology, []*workload.Execution) {
	return []*tree.Topology{b.topo}, []*workload.Execution{b.exec}
}
