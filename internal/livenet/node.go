package livenet

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/obsv"
	"hierdet/internal/repair"
	"hierdet/internal/tree"
)

// msgKind discriminates what flows through a node's mailbox.
type msgKind int

const (
	msgLocal       msgKind = iota // a completed local-predicate interval
	msgLocalBatch                 // a run of completed local intervals (ObserveBatch)
	msgReport                     // a child→parent aggregate report
	msgReportBatch                // a drain's worth of reports, flushed as one message
	msgAttach                     // a reattachment-protocol message
	msgHeartbeat                  // a liveness beat with repair state (distributed mode)
	msgHbTick                     // the wheel's recurring heartbeat tick (uncredited)
	msgSeekTimeout                // per-candidate grant timeout (seq = reqID)
	msgSeekBackoff                // between-rounds pause (seq = round)
)

// hbInfo is the repair state riding on a distributed-mode heartbeat: the
// sender's covered set (meaningful child→parent) and whether its tree root
// is currently renegotiating a parent (meaningful parent→child). See
// wire.Heartbeat for why each direction needs its half.
type hbInfo struct {
	rootSeeking bool
	covered     []int
}

// message is one mailbox entry. Every message except the heartbeat tick
// holds one credit in the cluster's pending ledger from before it is sent
// until after it is handled (see creditedKind).
type message struct {
	kind  msgKind
	from  int
	seq   int // linkSeq (msgReport), reqID or round (timers)
	epoch int
	iv    interval.Interval
	ivs   []interval.Interval // msgLocalBatch payload
	reps  []repair.Report     // msgReportBatch payload
	att   repair.Msg
	hb    hbInfo
	// born is the Observe wall-clock stamp (UnixNano) of the observation
	// whose causal cascade this message belongs to — stamped at admission,
	// inherited by every report the handling of this message emits, and
	// consumed when a detection closes the chain (observe→SolutionFound
	// latency). Zero on timer/heartbeat kinds and on frames that crossed a
	// transport (the stamp is deliberately not wire-encoded: wall clocks of
	// different processes do not subtract meaningfully).
	born int64
}

// liveNode is one process: a detector node plus its links. All fields below
// mb are confined to the worker currently running the node (the mailbox's
// scheduled flag admits at most one at a time), so they need no locks;
// cross-goroutine state lives in the cluster (under mu) or in atomics.
type liveNode struct {
	c    *Cluster
	id   int
	mb   mailbox
	down atomic.Bool  // crashed: drain messages without handling, stop beating
	beat atomic.Int64 // liveness beacon: UnixNano of the last published beat

	node    *core.Node
	parent  int
	outSeq  int               // per-current-link counter for reports to parent
	lastAgg interval.Interval // most recent aggregate, for resend-on-adopt
	hasAgg  bool              // lastAgg holds a real aggregate

	// Report coalescing state (Config.AdaptiveFlush). outBuf holds reports
	// owed to the parent until the worker reaches the end of the current
	// mailbox drain; drainFlush records that the buffer holds one ledger
	// credit, taken at first buffer and released by runNode after the
	// drain-end flush.
	outBuf     []repair.Report
	drainFlush bool
	// born is the stamp of the message currently being handled (see
	// message.born); bufBorn carries the oldest stamp among the reports
	// sitting in outBuf, so a coalesced flush propagates the stamp of the
	// observation that has been waiting longest. Worker-confined.
	born    int64
	bufBorn int64

	ivScratch  []interval.Interval // reused batch-ingestion staging
	rdyScratch []repair.Report     // reused resequencer release staging

	reseq     map[int]*repair.Resequencer // child id → resequencer
	epochs    repair.Epochs               // value: the zero Epochs is ready to use
	seeker    *repair.Seeker
	adopter   *repair.Adopter
	suspected map[int]bool

	// Distributed-mode failure-detector state, maintained from heartbeat
	// messages (all worker-confined, like everything above): when each peer
	// was last heard, the covered set each child last reported, and whether
	// the parent said this tree's root is seeking.
	lastHeard     map[int]time.Time
	covered       map[int][]int
	rootSeekingHB bool

	// rng drives this node's delivery-delay jitter. PCG rather than the
	// classic rand.Source: seeding the latter costs ~20µs of warmup per
	// node, which at p≥512 turns into >10ms of pure startup overhead per
	// cluster.
	rng   *rand.Rand
	rngMu sync.Mutex

	m nodeMetrics
	// lastPruned is the detector's Pruned count as of the last syncCoreStats,
	// so the IntervalPruned event can carry the delta. Worker-confined.
	lastPruned int
}

// initLiveNode builds one process in place. The cluster allocates all its
// liveNodes as one slab and initializes each slot here — at 256 tenants on a
// shared substrate, per-node boxing was a visible slice of registration's
// allocation bill. ln must be zero-valued (its sync fields forbid assigning
// a fresh struct over it).
func initLiveNode(ln *liveNode, c *Cluster, id int) {
	coreCfg := core.Config{
		N: c.topo.N(), Strict: c.cfg.Strict, KeepMembers: c.cfg.KeepMembers,
		Parallel: c.detectPool != nil, Pool: c.detectPool,
		Clocks: c.clockArena(),
	}
	ln.c = c
	ln.id = id
	ln.node = core.NewNode(id, coreCfg, true)
	ln.parent = c.topo.Parent(id)
	ln.reseq = make(map[int]*repair.Resequencer)
	ln.rng = rand.New(rand.NewPCG(uint64(c.cfg.Seed), uint64(id)<<17|1))
	ln.mb.init()
	// The failure-detector maps (suspected, lastHeard, covered) and the
	// repair state machines (seeker, adopter) build lazily on first touch: a
	// healthy node never pays for them, which at hundreds of tenants is a
	// visible slice of registration's allocation bill. All of them are
	// worker-confined, so first-touch construction needs no lock.
	for _, child := range c.topo.Children(id) {
		ln.node.AddChild(child)
		ln.reseq[child] = repair.NewResequencer()
		if c.remote {
			// Seed each child's covered set from the initial topology (every
			// participant knows it); the child's heartbeats refresh it.
			ln.setCovered(child, c.topo.Subtree(child))
		}
	}
	ln.beat.Store(time.Now().UnixNano())
}

func (ln *liveNode) handle(msg message) {
	ln.born = msg.born
	switch msg.kind {
	case msgLocal:
		ln.c.emitEvent(obsv.Event{Kind: obsv.IntervalObserved, Node: ln.id, Peer: obsv.NoPeer, Count: 1})
		ln.deliver(ln.node.OnInterval(ln.id, msg.iv))
	case msgLocalBatch:
		ln.c.emitEvent(obsv.Event{Kind: obsv.IntervalObserved, Node: ln.id, Peer: obsv.NoPeer, Count: len(msg.ivs)})
		ln.deliver(ln.node.OnIntervals(ln.id, msg.ivs))
	case msgReport:
		ln.m.msgsIn.Add(1)
		rs, ok := ln.reseq[msg.from]
		if !ok {
			// Report from a process that is no longer our child (in flight
			// across a repair); it belongs to the new parent's stream now.
			ln.m.stale.Add(1)
			return
		}
		ln.c.emitEvent(obsv.Event{Kind: obsv.ReportRecv, Node: ln.id, Peer: msg.from, Seq: msg.seq, Count: 1})
		ln.rdyScratch = rs.AcceptInto(repair.Report{Iv: msg.iv, LinkSeq: msg.seq, Epoch: msg.epoch}, ln.rdyScratch[:0])
		ln.ingest(msg.from, ln.rdyScratch)
		ln.gaugeReseq()
	case msgReportBatch:
		ln.m.msgsIn.Add(1)
		rs, ok := ln.reseq[msg.from]
		if !ok {
			ln.m.stale.Add(int64(len(msg.reps)))
			return
		}
		ln.c.emitEvent(obsv.Event{Kind: obsv.ReportRecv, Node: ln.id, Peer: msg.from,
			Seq: msg.reps[0].LinkSeq, Count: len(msg.reps)})
		for _, pl := range msg.reps {
			ln.rdyScratch = rs.AcceptInto(pl, ln.rdyScratch[:0])
			ln.ingest(msg.from, ln.rdyScratch)
		}
		ln.gaugeReseq()
	case msgAttach:
		ln.m.msgsIn.Add(1)
		ln.onAttach(msg.from, msg.att)
	case msgHeartbeat:
		ln.m.heartbeats.Add(1)
		ln.heard(msg.from, time.Now())
		if msg.from == ln.parent {
			ln.rootSeekingHB = msg.hb.rootSeeking
		}
		if _, isChild := ln.reseq[msg.from]; isChild && msg.hb.covered != nil {
			ln.setCovered(msg.from, msg.hb.covered)
		}
	case msgHbTick:
		if ln.c.cfg.HbEvery > 0 {
			ln.heartbeat()
		}
	case msgSeekTimeout:
		ln.getSeeker().OnTimeout(msg.seq)
	case msgSeekBackoff:
		ln.getSeeker().OnBackoff(msg.seq)
	}
}

// ingest feeds a resequencer's released run — in-order reports from one
// child — into the detector. Consecutive reports of one reconfiguration
// epoch go in as one batch (Algorithm 1 line 2: enqueue all, then detect
// per exposed head); an epoch advance in the middle of the run means the
// child's subtree changed and its stream restarted, so the queued remainder
// of the old stream is discarded before the new epoch's reports enter.
func (ln *liveNode) ingest(from int, ready []repair.Report) {
	for i := 0; i < len(ready); {
		if ln.epochs.Observe(from, ready[i].Epoch) {
			ln.node.ResetSource(from)
		}
		j := i + 1
		for j < len(ready) && ready[j].Epoch == ready[i].Epoch {
			j++
		}
		if j == i+1 {
			ln.deliver(ln.node.OnInterval(from, ready[i].Iv))
		} else {
			ivs := ln.ivScratch[:0]
			for k := i; k < j; k++ {
				ivs = append(ivs, ready[k].Iv)
			}
			ln.deliver(ln.node.OnIntervals(from, ivs))
			ln.ivScratch = ivs[:0]
		}
		i = j
	}
}

// deliver records a batch of detections and reports each aggregate upward,
// then mirrors the detector's counters into the scrape-safe atomics.
func (ln *liveNode) deliver(dets []core.Detection) {
	for _, det := range dets {
		atRoot := ln.parent == tree.None
		ln.m.detections.Add(1)
		if ln.born > 0 {
			ln.c.noteLatency(ln.born)
		}
		ln.c.record(Detection{Node: ln.id, AtRoot: atRoot, Det: det})
		if !atRoot {
			ln.report(det.Agg)
		}
	}
	ln.syncCoreStats()
}

// report ships an aggregate to the parent — immediately on a racing delayed
// path, or into the drain buffer under AdaptiveFlush. Reports to a crashed
// parent are lost (its mailbox drains unhandled), exactly like in-flight
// messages to a crashed process.
func (ln *liveNode) report(agg interval.Interval) {
	ln.lastAgg, ln.hasAgg = agg, true
	ln.emit(agg)
}

// resendLast re-reports the most recent aggregate to a newly adopted parent
// (paper §III-B / Figure 2(c)).
func (ln *liveNode) resendLast() {
	if !ln.hasAgg || ln.parent == tree.None {
		return
	}
	ln.emit(ln.lastAgg)
}

// emit assigns the next link sequence number and either sends the report or,
// under AdaptiveFlush, buffers it until the end of the current mailbox drain
// (runNode). The buffer is covered by an explicit ledger credit taken at
// first buffer, so Drain and Close cover buffered reports.
func (ln *liveNode) emit(agg interval.Interval) {
	pl := repair.Report{Iv: agg, LinkSeq: ln.outSeq, Epoch: ln.epochs.Stamp()}
	ln.outSeq++
	if ln.c.cfg.AdaptiveFlush {
		ln.bufferBorn()
		ln.outBuf = append(ln.outBuf, pl)
		if !ln.drainFlush && ln.c.takeFlushCredit() {
			ln.drainFlush = true
		}
		return
	}
	ln.m.msgsOut.Add(1)
	ln.c.emitEvent(obsv.Event{Kind: obsv.ReportSent, Node: ln.id, Peer: ln.parent, Seq: pl.LinkSeq, Count: 1})
	ln.c.send(ln.parent, message{kind: msgReport, from: ln.id, seq: pl.LinkSeq, epoch: pl.Epoch, iv: pl.Iv, born: ln.born}, ln.delay())
}

// bufferBorn folds the current handle's observation stamp into the buffered
// flush's: a coalesced batch carries the oldest stamp among its reports, so
// latency attribution never flatters coalescing.
func (ln *liveNode) bufferBorn() {
	if ln.born > 0 && (ln.bufBorn == 0 || ln.born < ln.bufBorn) {
		ln.bufBorn = ln.born
	}
}

// flushReports sends the buffered reports to the parent as one message (one
// wire frame in distributed mode). Runs on the node's worker at the end of a
// drain, and synchronously before a parent switch — buffered sequence
// numbers belong to the old link, so they must go (or be lost) there.
func (ln *liveNode) flushReports() {
	if len(ln.outBuf) == 0 {
		return
	}
	if ln.parent == tree.None {
		ln.outBuf = ln.outBuf[:0]
		return
	}
	batch := make([]repair.Report, len(ln.outBuf))
	copy(batch, ln.outBuf)
	ln.outBuf = ln.outBuf[:0]
	born := ln.bufBorn
	ln.bufBorn = 0
	ln.m.msgsOut.Add(1)
	ln.m.batchFlushes.Add(1)
	ln.c.emitEvent(obsv.Event{Kind: obsv.ReportSent, Node: ln.id, Peer: ln.parent,
		Seq: batch[0].LinkSeq, Count: len(batch)})
	ln.c.sendBatch(ln.parent, ln.id, batch, born, ln.delay())
}

// dropChild removes a dead or reassigned child's queue, returning the
// detections the removal unblocked.
func (ln *liveNode) dropChild(child int) []core.Detection {
	delete(ln.reseq, child)
	delete(ln.covered, child)
	delete(ln.lastHeard, child)
	ln.epochs.Forget(child)
	ln.epochs.Bump()
	ln.gaugeReseq()
	return ln.node.RemoveChild(child)
}

// heartbeat publishes this node's liveness beacon and checks the beacons of
// its tree neighbours (parent and children). In single-process mode beacons
// are atomic timestamps rather than messages: they model the paper's
// heartbeat exchange without entangling liveness traffic with the quiescence
// ledger, so an idle cluster can stop while heartbeats still flow. In
// distributed mode there is no shared memory to beat through, so beats
// become real heartbeat messages carrying the repair protocol's state.
func (ln *liveNode) heartbeat() {
	if ln.c.remote {
		ln.heartbeatRemote()
		return
	}
	now := time.Now().UnixNano()
	ln.beat.Store(now)
	staleAfter := ln.c.cfg.HbTimeout.Nanoseconds()
	for _, peer := range ln.watchPeers() {
		pn := ln.c.nodes[peer]
		if pn == nil || ln.suspected[peer] {
			continue
		}
		if now-pn.beat.Load() > staleAfter {
			ln.suspect(peer)
		}
	}
}

// heartbeatRemote sends one heartbeat message to every tree neighbour —
// carrying the node's covered set (fed upward into the parent's) and the
// root-seeking flag (propagated downward so a dangling tree refuses
// adoptions) — then suspects neighbours it has not heard from within the
// timeout. The first check after a peer appears only baselines its clock,
// and StartupGrace holds all suspicion back while a multi-process deployment
// is still launching.
func (ln *liveNode) heartbeatRemote() {
	c := ln.c
	beat := message{kind: msgHeartbeat, from: ln.id, epoch: ln.epochs.Peek(),
		hb: hbInfo{rootSeeking: ln.rootSeekingHB || ln.seeking(), covered: ln.ownCovered()}}
	for _, peer := range ln.watchPeers() {
		c.send(peer, beat, 0)
	}
	if time.Since(c.startAt) < c.cfg.StartupGrace {
		return
	}
	now := time.Now()
	for _, peer := range ln.watchPeers() {
		if ln.suspected[peer] {
			continue
		}
		last, heard := ln.lastHeard[peer]
		if !heard {
			ln.heard(peer, now)
			continue
		}
		if now.Sub(last) > c.cfg.HbTimeout {
			ln.suspect(peer)
		}
	}
}

// ownCovered returns this node's covered set: itself plus the last covered
// set each child reported (or the initial topology's subtree before a
// child's first beat). Distributed mode only; mirrors the simulator's
// distributed-repair bookkeeping.
func (ln *liveNode) ownCovered() []int {
	set := map[int]bool{ln.id: true}
	for _, cov := range ln.covered {
		for _, p := range cov {
			set[p] = true
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// watchPeers returns the neighbours whose liveness this node monitors: its
// parent and its current children, ascending.
func (ln *liveNode) watchPeers() []int {
	out := make([]int, 0, len(ln.reseq)+1)
	if ln.parent != tree.None {
		out = append(out, ln.parent)
	}
	for c := range ln.reseq {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// suspect handles a stale beacon or heartbeat silence. For a peer this
// cluster hosts, the suspicion is validated against the failure injector's
// record before acting: a node starved by the scheduler can miss beats
// without having crashed, and acting on a false suspicion would wrongly
// reconfigure the tree. (The check stands in for the perfect failure
// detector the paper's crash-stop model assumes.) A remote peer offers no
// such oracle — heartbeat silence is all the evidence there is, which is
// exactly the paper's model: the timeout plus crash-stop assumption makes
// the detector perfect, and Config.HbTimeout must absorb real network and
// scheduling jitter.
func (ln *liveNode) suspect(peer int) {
	c := ln.c
	if _, hosted := c.nodes[peer]; hosted {
		c.mu.Lock()
		dead := c.killed[peer]
		if dead && peer == ln.parent {
			c.seeking[ln.id] = true
		}
		c.mu.Unlock()
		if !dead {
			return
		}
	} else if peer == ln.parent {
		c.mu.Lock()
		c.seeking[ln.id] = true
		c.mu.Unlock()
	}
	if ln.suspected == nil {
		ln.suspected = make(map[int]bool)
	}
	ln.suspected[peer] = true
	ln.c.emitEvent(obsv.Event{Kind: obsv.NodeSuspected, Node: ln.id, Peer: peer, Count: 1})
	switch {
	case peer == ln.parent:
		// Our subtree is orphaned: renegotiate a parent (paper §III-F).
		ln.getSeeker().Start()
	case ln.node.HasSource(peer):
		// A child died: its whole subtree is gone from ours. Drop the queue;
		// the orphaned grandchildren reattach on their own.
		ln.m.childDrops.Add(1)
		ln.deliver(ln.dropChild(peer))
	}
}

// getSeeker returns the node's orphan-root state machine, building it on
// first use (see initLiveNode: repair state is lazy).
func (ln *liveNode) getSeeker() *repair.Seeker {
	if ln.seeker == nil {
		ln.seeker = repair.NewSeeker(ln.id, ln)
	}
	return ln.seeker
}

// getAdopter returns the node's candidate state machine, building it on
// first use.
func (ln *liveNode) getAdopter() *repair.Adopter {
	if ln.adopter == nil {
		ln.adopter = repair.NewAdopter(ln.id, ln)
	}
	return ln.adopter
}

// seeking reports whether this node is renegotiating a parent, without
// forcing the seeker into existence.
func (ln *liveNode) seeking() bool { return ln.seeker != nil && ln.seeker.Seeking() }

// heard stamps a peer's last-heartbeat time, building the map on first use.
func (ln *liveNode) heard(peer int, at time.Time) {
	if ln.lastHeard == nil {
		ln.lastHeard = make(map[int]time.Time)
	}
	ln.lastHeard[peer] = at
}

// setCovered records a child's covered set, building the map on first use.
func (ln *liveNode) setCovered(peer int, cov []int) {
	if ln.covered == nil {
		ln.covered = make(map[int][]int)
	}
	ln.covered[peer] = cov
}

// delay draws a random per-message delivery delay.
func (ln *liveNode) delay() time.Duration {
	ln.rngMu.Lock()
	d := time.Duration(ln.rng.Int64N(int64(ln.c.cfg.MaxDelay)))
	ln.rngMu.Unlock()
	return d
}
