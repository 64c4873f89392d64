package main

import (
	"fmt"
	"runtime"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// paced-tcp-63: open loop at pacedRate rounds/s, a global pulse every round,
// on a balanced binary tree of height 5 (63 processes). Two livenet
// participants in this process talk over loopback TCP; nodes are split by
// depth parity, so every tree edge crosses TCP as in a one-node-per-process
// deployment. Failure handling is off in the measured passes: with the
// cluster-file defaults (5 ms heartbeats, 40 ms timeout) the participants'
// failure detectors false-suspect at random moments mid-pass, with no stall
// of the process, and the detections lost after each storm would make a
// run's failure count a matter of chance. The traced run's repair probe
// switches them on (see repairProbe).
const (
	pacedHeight = 5
	pacedRate   = 50 // rounds per second
	// pacedPass is the length of one pass; each pass binds new transports
	// and builds new participants, so a run sees several set-ups.
	pacedPass = 1250 * time.Millisecond
	// pacedGrace is how long after the last due round a pass waits for
	// detections still owed before counting them missing.
	pacedGrace = 2 * time.Second
)

type paced struct {
	seed   int64
	topo   *tree.Topology
	exec   *workload.Execution
	rounds int
	expect []int
	host   [][]int // participant → hosted node ids
	owner  []int   // node id → participant
	rec    *recorder
	passes int
	hb     bool // failure handling on (repair probe only)
}

func newPaced(seed int64) runner {
	topo := tree.Balanced(2, pacedHeight)
	rounds := int(pacedRate * pacedPass.Seconds())
	exec := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: seed, PGlobal: 1})
	p := &paced{seed: seed, topo: topo, exec: exec, rounds: rounds, expect: expectations(topo, exec),
		host: make([][]int, 2), owner: make([]int, topo.N())}
	for _, id := range topo.AliveNodes() {
		side := topo.Depth(id) % 2
		p.owner[id] = side
		p.host[side] = append(p.host[side], id)
	}
	return p
}

// nextConfig is the participant configuration of the next pass (or
// participant), which gets its own delivery seed.
func (w *paced) nextConfig() livenet.Config {
	w.passes++
	cfg := livenet.Config{Topology: w.topo, Seed: w.seed + int64(w.passes)}
	if w.hb {
		cfg.HbEvery, cfg.HbTimeout = hbEvery, 8*hbEvery
	}
	return cfg
}

func (w *paced) setHeartbeats(on bool) { w.hb = on }

// participants binds one TCP transport per side, points each at the
// other's nodes and builds the two livenet participants, each with its
// Events sink.
func (w *paced) participants(events [2]func(obsv.Event)) ([2]*livenet.Cluster, [2]*tcptransport.Transport) {
	var cs [2]*livenet.Cluster
	var trs [2]*tcptransport.Transport
	for side := range trs {
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			panic(fmt.Sprintf("perfbench: binding loopback transport: %v", err))
		}
		trs[side] = tr
	}
	for side, tr := range trs {
		peers := map[int]string{}
		for _, id := range w.host[1-side] {
			peers[id] = trs[1-side].Addr()
		}
		tr.SetPeers(peers)
	}
	for side := range cs {
		cfg := w.nextConfig()
		cfg.Transport = trs[side]
		cfg.LocalNodes = w.host[side]
		cfg.Events = events[side]
		cs[side] = livenet.New(cfg)
	}
	return cs, trs
}

func (w *paced) pass(traced bool) pass {
	var p pass
	var rec *recorder
	if traced {
		w.rec = reuseRecorder(w.rec)
		rec = w.rec
	}
	sink := newRootSink(w.topo, w.exec, w.rounds, rec, 0)
	var events [2]func(obsv.Event)
	if rec != nil {
		events[0] = func(e obsv.Event) { rec.add(0, e) }
		events[1] = events[0]
	}
	events[w.owner[w.topo.Roots()[0]]] = sink.event // also feeds rec

	heap0 := liveHeap()
	t0 := time.Now()
	cs, trs := w.participants(events)
	p.setup = time.Since(t0)

	st := beginSteady()
	period := int64(time.Second / pacedRate)
	start := now()
	for r := 0; r < w.rounds; r++ {
		due := start + int64(r)*period
		p.genLag = append(p.genLag, float64(sleepUntil(due))/1e6)
		sink.setDue(r, due)
		t := now()
		for q := 0; q < w.exec.N; q++ {
			cs[w.owner[q]].ObserveBatch(q, w.exec.Streams[q][r:r+1])
		}
		p.observeBlock += time.Duration(now() - t)
		if r == w.rounds/2 {
			p.goroutines = runtime.NumGoroutine()
		}
	}
	p.genTime = time.Duration(now() - start)
	lastDue := start + int64(w.rounds-1)*period
	sink.wait(time.Duration(lastDue + int64(pacedGrace) - now()))
	for _, c := range cs {
		c.Drain()
	}
	st.end(&p)

	var last int64
	var rt tally
	p.lat, last, rt = sink.collect(nil)
	p.wall = time.Duration(max(last, lastDue) - start)
	p.tally.add(rt)
	p.intervals = w.exec.N * w.rounds
	p.rounds = w.rounds
	for _, c := range cs {
		p.observeCluster(c, w.topo, w.expect)
	}
	p.wireReports = p.cm.reportsSent
	p.retained = liveHeap() - heap0

	t1 := time.Now()
	for _, c := range cs {
		if err := c.Close(); err != nil {
			panic(err)
		}
	}
	p.teardown = time.Since(t1)
	for _, tr := range trs {
		addTCP(&p.tcp, tr.Stats())
	}
	if traced {
		p.spans = rec.spans(func(child, parent int) bool { return w.owner[child] != w.owner[parent] })
		p.droppedEvents = rec.dropped()
	}
	return p
}

// verify checks detections in process: aggregates that crossed the wire
// carry no members, so only an in-process cluster can expand them.
func (w *paced) verify() tally {
	cfg := w.nextConfig()
	return verifyRun(cfg, w.exec)
}

func (w *paced) inputs() ([]*tree.Topology, []*workload.Execution) {
	return []*tree.Topology{w.topo}, []*workload.Execution{w.exec}
}
