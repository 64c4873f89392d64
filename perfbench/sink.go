package main

import (
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// epoch anchors every timestamp the benchmark takes; now reads the monotonic
// clock relative to it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// rootSink is the Events sink of the untraced runs. It timestamps the
// full-span root detections of one detection tree and matches each to its
// round by the root's own clock component (an aggregate's Lo is the
// component-wise max of its members' Lo, so Lo[root] is the root process's
// interval start in that round). A detection matches at most one round it
// was expected for; anything else — a duplicate, or a full-span detection
// for no global round — is spurious. The AtRoot flag alone is not enough:
// after a false suspicion a partition root reports AtRoot too, with a
// smaller span.
type rootSink struct {
	n, root int
	round   map[uint32]int // Lo[root] of each global round → round index
	rec     *recorder      // traced runs only: stamps every event
	tenant  int32

	mu       sync.Mutex
	due      []int64 // set by the generator before feeding round r
	got      []int64 // receipt time per round; 0 = not yet
	matched  int
	spurious int
	want     int
	done     chan struct{}
}

// newRootSink expects a full-span root detection for every global round
// among the first fed rounds of exec.
func newRootSink(topo *tree.Topology, exec *workload.Execution, fed int, rec *recorder, tenant int) *rootSink {
	root := topo.Roots()[0]
	s := &rootSink{
		n: len(topo.AliveNodes()), root: root, rec: rec, tenant: int32(tenant),
		round: make(map[uint32]int),
		due:   make([]int64, fed),
		got:   make([]int64, fed),
		done:  make(chan struct{}),
	}
	for r := 0; r < fed; r++ {
		if exec.Rounds[r].Kind == workload.Global {
			s.round[exec.Streams[root][r].Lo[root]] = r
			s.want++
		}
	}
	if s.want == 0 {
		close(s.done)
	}
	return s
}

// event is the cluster's Events callback; it runs on worker goroutines.
func (s *rootSink) event(e obsv.Event) {
	if s.rec != nil {
		s.rec.add(s.tenant, e)
	}
	if e.Kind != obsv.SolutionFound || !e.AtRoot || len(e.Agg.Span) != s.n {
		return
	}
	t := now()
	r, ok := s.round[e.Agg.Lo[s.root]]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok || s.got[r] != 0 {
		s.spurious++
		return
	}
	s.got[r] = t
	s.matched++
	if s.matched == s.want {
		close(s.done)
	}
}

// setDue records when round r was due to be fed.
func (s *rootSink) setDue(r int, t int64) {
	s.mu.Lock()
	s.due[r] = t
	s.mu.Unlock()
}

// wait blocks until every expected detection arrived or the deadline passed.
func (s *rootSink) wait(deadline time.Duration) {
	select {
	case <-s.done:
	case <-time.After(deadline):
	}
}

// collect appends the latency (ms) of every matched round to lat and
// returns it with the last receipt time and the sink's share of the gate:
// expected full-span detections, the missing ones and the spurious ones.
func (s *rootSink) collect(lat []float64) ([]float64, int64, tally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var last int64
	for r, t := range s.got {
		if t == 0 {
			continue
		}
		lat = append(lat, float64(t-s.due[r])/1e6)
		if t > last {
			last = t
		}
	}
	return lat, last, tally{expected: s.want, missing: s.want - s.matched, spurious: s.spurious}
}

// spanEvent is one stamped lifecycle event of a traced run.
type spanEvent struct {
	t               int64
	tenant          int32
	node, peer, seq int32
	kind            obsv.EventKind
}

// recorder stamps every event of a traced pass into a preallocated buffer;
// events past its capacity are counted and dropped.
type recorder struct {
	buf []spanEvent
	n   atomic.Int64
}

// recorderCap bounds one traced pass's events (24 bytes each); no workload's
// pass comes near it.
const recorderCap = 1 << 20

// reuseRecorder empties r for the next traced pass, allocating it on first use.
func reuseRecorder(r *recorder) *recorder {
	if r == nil {
		return &recorder{buf: make([]spanEvent, recorderCap)}
	}
	r.n.Store(0)
	return r
}

func (r *recorder) add(tenant int32, e obsv.Event) {
	i := r.n.Add(1) - 1
	if i < int64(len(r.buf)) {
		r.buf[i] = spanEvent{t: now(), tenant: tenant, node: int32(e.Node), peer: int32(e.Peer), seq: int32(e.Seq), kind: e.Kind}
	}
}

// span is one measured interval of a traced pass: a hop (child ReportSent
// to parent ReportRecv) or a node's self time (ReportRecv to its own next
// ReportSent or SolutionFound).
type span struct {
	kind       string // "hop" or "self"
	cross      bool   // hop crosses a transport
	tenant     int32
	node, peer int32
	start, end int64
}

// spans turns the recorded events into hop and self-time spans. cross
// reports whether the edge child→parent crosses a transport. Call only after
// the pass's clusters are closed.
func (r *recorder) spans(cross func(child, parent int) bool) []span {
	n := min(int(r.n.Load()), len(r.buf))
	type link struct{ tenant, child, parent, seq int32 }
	type node struct{ tenant, id int32 }
	sent := make(map[link]int64)
	pending := make(map[node]int64)
	var out []span
	for _, e := range r.buf[:n] {
		switch e.kind {
		case obsv.ReportSent:
			sent[link{e.tenant, e.node, e.peer, e.seq}] = e.t
		}
	}
	for _, e := range r.buf[:n] {
		me := node{e.tenant, e.node}
		switch e.kind {
		case obsv.ReportRecv:
			if t0, ok := sent[link{e.tenant, e.peer, e.node, e.seq}]; ok {
				out = append(out, span{kind: "hop", cross: cross(int(e.peer), int(e.node)),
					tenant: e.tenant, node: e.peer, peer: e.node, start: t0, end: e.t})
			}
			pending[me] = e.t
		case obsv.ReportSent, obsv.SolutionFound:
			if t0, ok := pending[me]; ok {
				out = append(out, span{kind: "self", tenant: e.tenant, node: e.node, peer: -1, start: t0, end: e.t})
				delete(pending, me)
			}
		}
	}
	return out
}

// dropped is how many events the buffer could not hold.
func (r *recorder) dropped() int {
	return max(0, int(r.n.Load())-len(r.buf))
}
