package livenet

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hierdet/internal/obsv"
	"hierdet/internal/transport"
	"hierdet/internal/tree"
	"hierdet/internal/wire"
	"hierdet/internal/workload"
)

// silentLeaf runs a two-node chain as two distributed participants over an
// in-process network, with every heartbeat frame the leaf sends dropped —
// and, with dropReports, its report frames too. It feeds the leaf one
// interval per HbEvery for the startup grace plus 3×HbTimeout (the parent
// has nothing of its own to observe, so the leaf's reports are the only
// traffic that can reach the parent), then returns the parent cluster, how
// many suspicions node 0 raised, and how many frames the leaf lost.
func silentLeaf(t *testing.T, dropReports bool) (parent *Cluster, suspicions, dropped int64, stop func()) {
	t.Helper()
	const hbEvery, hbTimeout, grace = 2 * time.Millisecond, 50 * time.Millisecond, 5 * time.Millisecond
	build := func() *tree.Topology { return tree.Chain(2) }
	window := grace + 3*hbTimeout
	rounds := int(window/hbEvery) + 10
	e := workload.Generate(workload.Config{Topology: build(), Rounds: rounds, Seed: 5, PGlobal: 1})

	net := transport.NewNetwork()
	epRoot, epLeaf := net.Endpoint(0), net.Endpoint(1)
	var lost, suspected atomic.Int64
	epLeaf.Drop = func(to int, frame []byte) bool {
		k, err := wire.FrameKind(frame)
		if err != nil {
			return false
		}
		if k == wire.KindHeartbeat || (dropReports && (k == wire.KindReport || k == wire.KindReportBatch)) {
			lost.Add(1)
			return true
		}
		return false
	}
	mk := func(id int, ep *transport.Endpoint, events func(obsv.Event)) *Cluster {
		return New(Config{
			Topology: build(), Seed: 7, Strict: true,
			HbEvery: hbEvery, HbTimeout: hbTimeout, StartupGrace: grace,
			Transport: ep, LocalNodes: []int{id}, Events: events,
		})
	}
	root := mk(0, epRoot, func(ev obsv.Event) {
		if ev.Kind == obsv.NodeSuspected && ev.Node == 0 {
			suspected.Add(1)
		}
	})
	leaf := mk(1, epLeaf, nil)
	stop = func() {
		leaf.Close()
		root.Close()
	}

	deadline := time.Now().Add(window)
	for k := 0; k < rounds && time.Now().Before(deadline); k++ {
		leaf.Observe(1, e.Streams[1][k])
		time.Sleep(hbEvery)
	}
	return root, suspected.Load(), lost.Load(), stop
}

// TestReportsCountAsLiveness pins the first half of distributed liveness: a
// child whose heartbeats are all lost but whose reports keep arriving is
// alive, and the parent must not suspect it — a report from a watch peer
// refreshes its last-heard time exactly as a heartbeat does.
func TestReportsCountAsLiveness(t *testing.T) {
	root, suspicions, dropped, stop := silentLeaf(t, false)
	defer stop()
	if dropped == 0 {
		t.Fatal("no heartbeat frame was dropped; the test exercised nothing")
	}
	if root.Metrics()[0].MsgsIn == 0 {
		t.Fatal("the parent received no reports")
	}
	if suspicions != 0 || root.Metrics()[0].ChildDrops != 0 {
		t.Errorf("parent suspected its reporting child: %d suspicions, %d child drops",
			suspicions, root.Metrics()[0].ChildDrops)
	}
}

// TestSilentChildSuspected is the control: with the child's heartbeats and
// reports both lost, the parent hears nothing and must still suspect it and
// drop its queue.
func TestSilentChildSuspected(t *testing.T) {
	root, _, dropped, stop := silentLeaf(t, true)
	defer stop()
	if dropped == 0 {
		t.Fatal("no frame was dropped; the test exercised nothing")
	}
	waitCond(t, "parent to drop its silent child", func() bool { return root.Metrics()[0].ChildDrops == 1 })
}

// TestHeartbeatTickAllocFree pins the single-process heartbeat tick at zero
// allocations: the watch-peer list is cached between topology changes, not
// rebuilt and sorted on every tick.
func TestHeartbeatTickAllocFree(t *testing.T) {
	c := New(Config{Topology: tree.Balanced(2, 3), HbEvery: time.Hour})
	defer c.Close()
	ln := c.nodes[1] // a parent and two children to watch
	if got := len(ln.watchPeers()); got != 3 {
		t.Fatalf("node 1 watches %d peers, want 3", got)
	}
	if allocs := testing.AllocsPerRun(100, ln.heartbeat); allocs != 0 {
		t.Errorf("heartbeat allocates %.1f times per tick, want 0", allocs)
	}
}

// TestWatchPeersFollowTopology checks the cache is invalidated by every
// topology change a node goes through: a dropped child and a new parent.
func TestWatchPeersFollowTopology(t *testing.T) {
	c := New(Config{Topology: tree.Balanced(2, 3), HbEvery: time.Hour})
	defer c.Close()
	ln := c.nodes[1]
	before := ln.watchPeers()
	ln.dropChild(3)
	if got := ln.watchPeers(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("after dropping child 3, watch peers = %v, want [0 4]", got)
	}
	if before[2] != 4 || before[1] != 3 {
		t.Errorf("the dropped-from slice %v was rewritten in place", before)
	}
	ln.Adopt(9, nil)
	ln.Partitioned()
	if got := ln.watchPeers(); len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Errorf("after adopting 9 and becoming a root, watch peers = %v, want [4 9]", got)
	}
}

// TestMessageSize guards the mailbox entry's footprint: every mailbox slot,
// drain swap buffer and delayed-delivery wheel entry holds a message by
// value, so the rare control payloads stay behind one pointer.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 248 {
		t.Errorf("message is %d bytes, want at most 248", got)
	}
}
