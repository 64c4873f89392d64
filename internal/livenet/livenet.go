// Package livenet runs the hierarchical detector over real concurrency. It
// is the natural Go embedding of the paper's system model — asynchronous
// processes, asynchronous non-FIFO message passing — and complements
// internal/simnet, which trades real concurrency for determinism.
//
// The delivery plane is built for scale: every node owns a bounded mailbox
// shard, a small worker pool drains the shards (one worker per node at a
// time, so detector state stays single-writer), and a single hashed timer
// wheel carries every delayed message, repair timeout and heartbeat tick.
// Steady-state goroutine count is the pool plus the wheel — independent of
// the process count and of the number of in-flight messages. Messages on one link still genuinely race and arrive out of order (the
// wheel quantizes each message's pseudo-random delay); the same per-link
// sequence numbers and resequencers as the simulated runtime (shared via
// internal/repair) restore queue order at the receiver.
//
// With Config.AdaptiveFlush each node coalesces the reports its handlers emit
// during one mailbox drain and flushes them as one message (one wire frame,
// in distributed mode) at the end of that drain. Arrivals batch
// symmetrically: runs of in-order reports released together
// by a resequencer feed the detector through core.Node's batch ingestion
// (OnIntervals), which runs the elimination loop once per exposed head
// rather than once per arrival (Algorithm 1 line 2).
//
// With heartbeats enabled (Config.HbEvery > 0) the cluster is fault
// tolerant per the paper's §III-F: Kill crashes a process, its tree
// neighbours detect the silence, the dead node's parent drops the child's
// queue, and each orphan subtree renegotiates a parent over the network
// using the request/grant/confirm/abort protocol of internal/repair — the
// same state machines the deterministic simulator drives, here exercised
// under real races. Orphans that exhaust their candidates continue as
// partition roots, detecting the partial predicate over their own subtree.
//
// Lifecycle is race-clean by construction: a single mutex guards the
// cluster state machine (running → stopping → stopped) and a message-credit
// ledger; every message holds exactly one credit from before it is sent
// until after it is handled, timers take their credit when armed, and Close
// waits on a condition variable until the ledger drains before tearing the
// pool and the wheel down. There is no sleep-polling, no unsynchronized
// flag, and nothing left sleeping after Close returns: the wheel cancels its
// remaining (uncredited) entries instead of firing them.
//
// With Config.Transport set the cluster becomes one participant of a
// distributed deployment: it hosts only Config.LocalNodes, traffic between
// co-hosted nodes stays in-process, and everything else is wire-encoded
// (internal/wire) and shipped through the transport — the in-process Network
// of internal/transport for deterministic tests, real TCP sockets
// (internal/transport/tcptransport) for separate OS processes. Distributed
// mode has no shared state to lean on, so it runs the same machinery the
// deterministic simulator's distributed-repair mode does: covered sets and
// the root-seeking flag ride on heartbeat messages, suspicion comes from
// heartbeat silence alone, and adoption grants are validated against local
// knowledge only.
package livenet

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/obsv"
	"hierdet/internal/repair"
	"hierdet/internal/transport"
	"hierdet/internal/tree"
	"hierdet/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// Topology is the spanning tree; one detector node runs per alive node.
	Topology *tree.Topology
	// MaxDelay bounds the random per-message delivery delay (default 200µs;
	// larger values force more reordering; New rejects negative values).
	// The timer wheel quantizes delays to its tick (MaxDelay/8, clamped to
	// [20µs, 1ms]).
	MaxDelay time.Duration
	// Seed drives the delay distribution.
	Seed int64
	// Strict and KeepMembers configure the detector nodes (see core.Config).
	Strict, KeepMembers bool

	// Workers sizes the pool that drains the mailbox shards. Zero means
	// GOMAXPROCS.
	Workers int
	// MailboxBound caps each node's mailbox shard for external producers:
	// Observe and ObserveBatch block while the destination shard is at the
	// bound, pushing back on the workload. Internal cascade traffic is not
	// bounded (a blocked worker could deadlock the pool). Zero means 4096.
	MailboxBound int
	// AdaptiveFlush coalesces a node's child→parent reports per worker
	// drain: reports a node emits while its worker drains one mailbox swap
	// leave as a single message (one wire frame in distributed mode) at the
	// end of that drain. The coalescing unit is the actual burst — a
	// detection cascade triggered by one batch of deliveries flushes as one
	// frame with zero added latency, while an isolated report still leaves
	// within its own drain. Off (the default) sends every report
	// immediately, the paper's per-detection behaviour.
	AdaptiveFlush bool

	// SequentialDetect restores the single-threaded in-node detection
	// engine — the paper's Algorithm 1 loop exactly as it ran before the
	// parallel engine landed. It is the parity oracle the property tests and
	// the replay planes compare the parallel engine against; production
	// configurations leave it off and get the partitioned engine with flat
	// aggregate storage.
	SequentialDetect bool
	// DetectWorkers sizes the comparison worker set the parallel detection
	// engine shares across every hosted node (core.Pool). Zero means
	// GOMAXPROCS. Ignored under SequentialDetect.
	DetectWorkers int

	// Scheduler attaches the cluster to a shared scheduler substrate (see
	// NewSharedScheduler): the substrate's worker pool drains the mailbox
	// shards, its timer wheel carries the delayed messages and heartbeat
	// ticks, its comparison pool backs the parallel detection engine and its
	// clock arena supplies the aggregate storage — the cluster spawns no
	// delivery goroutines of its own. Workers and DetectWorkers are then
	// ignored (the substrate's pools are sized once, at its creation);
	// MailboxBound still applies per cluster. Nil (the default) keeps a
	// private pool and wheel — a standalone cluster behaves exactly as
	// before.
	Scheduler *SharedScheduler

	// HbEvery enables failure handling: on this period every node publishes
	// a liveness beacon and checks the beacons of its tree neighbours. Zero
	// (the default) disables heartbeats and failure handling; Kill then
	// panics.
	HbEvery time.Duration
	// HbTimeout is how stale a peer's beacon must be before it is suspected
	// dead. Default 8×HbEvery.
	HbTimeout time.Duration
	// SeekTimeout is how long an orphan root waits for each candidate's
	// grant before moving on. A willing candidate answers in two message
	// delays, so the timeout only gates the failure paths (dead or refusing
	// candidates) — but it must absorb real scheduler and timer jitter, or
	// grants go stale and live candidates are skipped (in the worst case the
	// orphan wrongly declares itself partitioned). Default
	// max(10ms, 4×MaxDelay, 2×HbEvery).
	SeekTimeout time.Duration
	// ResendLastOnAdopt re-reports the subtree's most recent aggregate to a
	// newly adopted parent (paper §III-B / Figure 2(c)): reports in flight
	// to the dead parent are lost, but the latest solution the subtree
	// found is not.
	ResendLastOnAdopt bool
	// Events, when set, receives the cluster's full lifecycle stream —
	// every interval observed, report sent and received, solution found,
	// interval pruned, node suspected, repair concluded and transport
	// redial (see obsv.EventKind). Every detection arrives as a
	// SolutionFound event as it is recorded — the streaming complement of
	// Detections, which a long-running process (cmd/hierdet-node) needs —
	// and every concluded reattachment as a RepairConcluded event (Peer is
	// the adopting node, or tree.None for a partition root). Events for one
	// node are delivered in that node's causal order; events of different
	// nodes interleave, so the sink must be safe for concurrent calls. It
	// runs off the cluster's locks but on runtime goroutines: keep it quick
	// and never call Close from it.
	Events func(obsv.Event)

	// Transport switches the cluster to distributed mode: it hosts only
	// LocalNodes, and messages to every other topology node are wire-encoded
	// and shipped through the transport (see the package comment). The
	// cluster starts the transport in New and closes it in Close.
	Transport transport.Transport
	// LocalNodes is the subset of topology nodes this cluster hosts
	// (distributed mode only; default: every alive node, i.e. a
	// single-participant deployment).
	LocalNodes []int
	// StartupGrace suppresses heartbeat-silence suspicion for this long
	// after New: in a multi-process deployment the participants do not start
	// simultaneously, and without a grace window the early ones would
	// "repair around" peers that merely have not launched yet. Default
	// 2×HbTimeout in distributed mode, unused otherwise.
	StartupGrace time.Duration
}

// Detection is one predicate satisfaction observed by the live cluster.
type Detection struct {
	Node   int
	AtRoot bool
	Det    core.Detection
}

// RepairEvent records one concluded reattachment. NewParent is tree.None
// when the orphan became a partition root.
type RepairEvent struct {
	Orphan    int
	NewParent int
}

// clusterState is the lifecycle phase, guarded by Cluster.mu.
type clusterState int

const (
	clusterRunning clusterState = iota
	clusterStopping
	clusterStopped
)

// Cluster is a running set of detector nodes. Create with New, feed local
// intervals with Observe or ObserveBatch, optionally crash processes with
// Kill, then Close to drain and read every detection with Detections.
type Cluster struct {
	cfg     Config
	nodes   map[int]*liveNode
	wg      sync.WaitGroup // worker pool (private mode only)
	wheel   *wheel
	runq    chan *liveNode // private mode: the channel behind sched
	sched   runQueue       // where enqueue schedules nodes (see sched.go)
	bound   int            // mailbox bound for external producers
	workers int
	// shared is the substrate this cluster rides (Config.Scheduler), with
	// seat the cluster's DRR run-queue client on it; both nil in private
	// mode. halted flips at teardown so the shared wheel stops re-arming this
	// cluster's recurring ticks.
	shared *SharedScheduler
	seat   *schedClient
	halted atomic.Bool
	// detectPool is the comparison worker set shared by every hosted node's
	// parallel detection engine; nil under SequentialDetect,
	// substrate-owned when shared is set (teardown then must not close it).
	detectPool *core.Pool
	remote     bool      // distributed mode: Transport is set
	startAt    time.Time // StartupGrace reference point

	// Observability plane: the metrics registry every family registers
	// into, the per-kind event counters (index = obsv.EventKind), and the
	// scheduler-pool instruments (see registerFamilies).
	reg         *obsv.Registry
	evCounts    [obsv.NumEventKinds]*obsv.Counter
	busyWorkers atomic.Int64
	drains      atomic.Int64
	drained     atomic.Int64
	drainHist   *obsv.Histogram
	latHist     *obsv.Histogram // observe→SolutionFound latency

	// mu guards everything below: the lifecycle state machine, the
	// message-credit ledger (pending, see post/armTimer/done), the topology
	// mirror the repair protocol validates against, and the collected
	// results. cond signals pending reaching zero.
	mu      sync.Mutex
	cond    *sync.Cond
	state   clusterState
	pending int
	topo    *tree.Topology
	killed  map[int]bool
	seeking map[int]bool // orphan roots currently renegotiating a parent
	reqSeq  int
	dets    []Detection
	final   []Detection // set once by teardown; read by Detections
	repairs []RepairEvent
}

// New builds and starts a cluster over the alive nodes of the topology.
func New(cfg Config) *Cluster {
	if cfg.Topology == nil {
		panic("livenet: Topology is required")
	}
	if cfg.MaxDelay < 0 {
		panic("livenet: MaxDelay must not be negative")
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 200 * time.Microsecond
	}
	if cfg.HbTimeout == 0 {
		cfg.HbTimeout = 8 * cfg.HbEvery
	}
	if cfg.SeekTimeout == 0 {
		cfg.SeekTimeout = 10 * time.Millisecond
		if 4*cfg.MaxDelay > cfg.SeekTimeout {
			cfg.SeekTimeout = 4 * cfg.MaxDelay
		}
		if 2*cfg.HbEvery > cfg.SeekTimeout {
			cfg.SeekTimeout = 2 * cfg.HbEvery
		}
	}
	if cfg.Transport != nil && cfg.StartupGrace == 0 {
		cfg.StartupGrace = 2 * cfg.HbTimeout
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MailboxBound <= 0 {
		cfg.MailboxBound = 4096
	}
	c := &Cluster{
		cfg:     cfg,
		remote:  cfg.Transport != nil,
		startAt: time.Now(),
		topo:    cfg.Topology,
		bound:   cfg.MailboxBound,
		workers: cfg.Workers,
		shared:  cfg.Scheduler,
		nodes:   make(map[int]*liveNode),
		killed:  make(map[int]bool),
		seeking: make(map[int]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	if c.shared != nil {
		// Shared substrate: adopt its wheel, pools and clock arena; the
		// cluster's only seat on it is a DRR run-queue client.
		c.wheel = c.shared.wheel
		c.workers = c.shared.workers
		c.seat = c.shared.register()
		c.sched = c.seat
		if !cfg.SequentialDetect {
			c.detectPool = c.shared.detect
		}
	} else {
		c.wheel = newWheel(cfg.MaxDelay / 8)
		if !cfg.SequentialDetect {
			dw := cfg.DetectWorkers
			if dw <= 0 {
				dw = runtime.GOMAXPROCS(0)
			}
			c.detectPool = core.NewPool(dw)
		}
	}
	c.reg = obsv.NewRegistry()
	hosted := cfg.Topology.AliveNodes()
	if c.remote && len(cfg.LocalNodes) > 0 {
		hosted = cfg.LocalNodes
	}
	// One slab for all hosted processes: the node structs dominate a
	// cluster's construction allocations, and a plane registering hundreds
	// of tenants pays that bill hundreds of times over.
	slab := make([]liveNode, len(hosted))
	for i, id := range hosted {
		if !cfg.Topology.Alive(id) {
			panic(fmt.Sprintf("livenet: LocalNodes lists dead or unknown node %d", id))
		}
		initLiveNode(&slab[i], c, id)
		c.nodes[id] = &slab[i]
	}
	if c.shared == nil {
		// Sentinel stops (one nil per worker) ride the same queue as work, so
		// the capacity covers every node being scheduled at once plus them.
		c.runq = make(chan *liveNode, len(c.nodes)+c.workers)
		c.sched = chanQueue{ch: c.runq}
	}
	c.registerFamilies()
	if c.remote {
		// A transport that knows how to describe itself (tcptransport does)
		// joins the cluster's registry and event stream before any traffic
		// flows.
		if inst, ok := cfg.Transport.(interface {
			Instrument(*obsv.Registry, func(obsv.Event))
		}); ok {
			inst.Instrument(c.reg, c.emitEvent)
		}
		if err := cfg.Transport.Start(c.onFrame); err != nil {
			panic(fmt.Sprintf("livenet: transport start: %v", err))
		}
	}
	if c.shared == nil {
		go c.wheel.run()
		for i := 0; i < c.workers; i++ {
			c.wg.Add(1)
			go c.worker()
		}
	}
	if cfg.HbEvery > 0 {
		for _, ln := range c.nodes {
			// Stagger first beats so the cluster does not pulse in lockstep.
			first := 1 + time.Duration(ln.rng.Int64N(int64(cfg.HbEvery)))
			c.wheel.schedule(ln, message{kind: msgHbTick}, first, cfg.HbEvery)
		}
	}
	return c
}

// Observe feeds one completed local-predicate interval of process p into the
// cluster. Intervals of one process must be observed in generation order
// (they are at the emitting process by construction); different processes
// may call Observe concurrently. Observe blocks while p's mailbox shard is
// at its bound (backpressure) and must not be called after Close;
// observations for killed processes are silently dropped (the process is
// dead — it generates nothing).
func (c *Cluster) Observe(p int, iv interval.Interval) {
	ln := c.admit(p, 1)
	if ln == nil {
		return
	}
	c.enqueue(ln, message{kind: msgLocal, from: p, iv: iv, born: time.Now().UnixNano()}, true)
}

// ObserveBatch feeds a run of consecutive completed intervals of process p,
// in generation order, as one delivery: the detector enqueues them all and
// runs detection once per exposed head (Algorithm 1 line 2) instead of once
// per interval. The cluster retains ivs until the batch is handled; the
// caller must not modify it afterwards. Semantics are identical to calling
// Observe once per interval — only the per-message overhead differs.
func (c *Cluster) ObserveBatch(p int, ivs []interval.Interval) {
	if len(ivs) == 0 {
		return
	}
	ln := c.admit(p, 1)
	if ln == nil {
		return
	}
	c.enqueue(ln, message{kind: msgLocalBatch, from: p, ivs: ivs, born: time.Now().UnixNano()}, true)
}

// admit performs Observe/ObserveBatch's shared lifecycle check and takes
// credits message deliveries. It returns nil when the observation should be
// silently dropped (killed process).
func (c *Cluster) admit(p, credits int) *liveNode {
	ln, ok := c.nodes[p]
	if !ok {
		panic(fmt.Sprintf("livenet: Observe for unknown process %d", p))
	}
	c.mu.Lock()
	if c.state != clusterRunning {
		c.mu.Unlock()
		panic("livenet: Observe after Close")
	}
	if c.killed[p] {
		c.mu.Unlock()
		return nil
	}
	c.pending += credits
	c.mu.Unlock()
	return ln
}

// Kill crashes process node (crash-stop: it stops beating, handling and
// sending forever; queued and in-flight messages to it are discarded). It
// returns the number of orphan subtrees the crash created — the number of
// RepairConcluded events that will eventually fire as each orphan reattaches
// or gives up. Killing requires heartbeats (Config.HbEvery > 0); killing an
// already-dead process returns 0.
func (c *Cluster) Kill(node int) int {
	if c.cfg.HbEvery <= 0 {
		panic("livenet: Kill requires heartbeats (Config.HbEvery > 0)")
	}
	ln, ok := c.nodes[node]
	if !ok {
		panic(fmt.Sprintf("livenet: Kill of unknown process %d", node))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != clusterRunning {
		panic("livenet: Kill after Close")
	}
	if c.killed[node] {
		return 0
	}
	c.killed[node] = true
	delete(c.seeking, node)
	_, orphans := c.topo.MarkFailed(node)
	ln.down.Store(true)
	return len(orphans)
}

// Drain blocks until the message-credit ledger is empty: every observation
// fed so far, and the whole report cascade it triggered, has been handled.
// Armed repair timers and buffered AdaptiveFlush reports hold credits too, so
// after the survivors have begun a reattachment Drain also covers its
// conclusion. It does not stop anything; Observe may be called again
// afterwards.
func (c *Cluster) Drain() {
	c.mu.Lock()
	for c.pending != 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// Close waits for the cluster to go idle, shuts the delivery plane down and
// makes every detection readable through Detections. It follows the
// io.Closer convention: closing an already-closed cluster returns nil. Close
// never fails; the error return exists so every long-lived object in the
// package family (Cluster, tenant-plane Multiplexer, replay
// Recorder/Replayer) closes through the same signature.
//
// The quiescence protocol (quiesceLocked): state moves to stopping (new
// Observe calls panic, internal cascade traffic still flows), then Close
// waits on the condition variable until the credit ledger drains. Because
// every message acquires its credit under mu before it is sent — timers at
// arm time — a drained ledger means no credited delivery can be
// outstanding, so moving to stopped and cancelling the wheel (teardown)
// cannot lose work. The wheel's surviving entries are the uncredited
// heartbeat ticks; they are discarded, the workers take their stop
// sentinels, and nothing is left sleeping or running when Close returns.
func (c *Cluster) Close() error {
	return c.Shutdown(context.Background())
}

// Shutdown is Close with a deadline: it waits for the message-credit ledger
// to drain only as long as ctx allows. If the ledger drains in time the
// cluster tears down exactly as Close does and Shutdown returns nil. If ctx
// expires first, Shutdown returns ctx.Err() and the cluster RESUMES RUNNING —
// no work has been lost, Observe is legal again, and a later Close or
// Shutdown can finish the job. On an already-stopped cluster Shutdown
// returns nil.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.state != clusterRunning {
		c.mu.Unlock()
		return nil
	}
	if !c.quiesceLocked(ctx) {
		// Deadline hit with traffic still in flight: abort the shutdown and
		// hand the cluster back in the running state.
		c.state = clusterRunning
		c.mu.Unlock()
		return ctx.Err()
	}
	c.mu.Unlock()
	c.teardown()
	return nil
}

// quiesceLocked runs the quiescence protocol under mu: state moves to
// stopping (new Observe calls panic, internal cascade traffic still flows),
// then waits on the condition variable until the credit ledger drains or ctx
// expires, whichever comes first. Returns true
// with state at clusterStopped when the ledger drained, false with state
// still at clusterStopping when ctx expired first (the caller restores
// clusterRunning).
func (c *Cluster) quiesceLocked(ctx context.Context) bool {
	c.state = clusterStopping
	var stopWatch chan struct{}
	if ctx.Done() != nil {
		// The waiter below sleeps on the cond; a context expiry has to kick
		// it awake. The watcher is told to stand down once quiescence
		// resolves either way.
		stopWatch = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			case <-stopWatch:
			}
		}()
		defer close(stopWatch)
	}
	for c.pending != 0 {
		if ctx.Err() != nil {
			return false
		}
		c.cond.Wait()
	}
	c.state = clusterStopped
	return true
}

// teardown dismantles the delivery plane after a successful quiescence
// (state is clusterStopped, ledger empty — see Close's doc comment for why
// nothing can be lost from here) and stashes the final sorted detection
// list for Detections.
func (c *Cluster) teardown() {
	c.halted.Store(true)
	if c.shared != nil {
		// Shared substrate: the wheel and pools belong to the substrate and
		// keep running for the other clusters. cancel removes this cluster's
		// remaining (uncredited, recurring) wheel entries, and detach waits
		// until no shared worker is still inside one of its drains — the
		// role the sentinel/WaitGroup protocol plays in private mode.
		c.wheel.cancel(c)
		c.shared.detach(c.seat)
	} else {
		// Order matters: the wheel must be fully gone before the stop
		// sentinels go out, because an advancing wheel pushes nodes onto the
		// run queue.
		c.wheel.stop()
		<-c.wheel.done
		for i := 0; i < c.workers; i++ {
			c.runq <- nil
		}
		c.wg.Wait()
		// With the delivery workers gone no detection can be in flight, so
		// the comparison pool can be torn down without a round mid-fanout.
		c.detectPool.Close()
	}
	if c.remote {
		// Incoming frames have been dropped (not credited) since the state
		// reached stopped; Close additionally waits out any receive callback
		// already in flight, so nothing touches the cluster after Close.
		c.cfg.Transport.Close()
	}
	// Ownership transfer, not a copy: teardown runs once (quiescence resolves
	// exactly once) and nothing records into a stopped cluster, so the
	// accumulated list becomes the final one as-is.
	c.mu.Lock()
	out := c.dets
	c.dets = nil
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Det.Agg.Seq < out[j].Det.Agg.Seq
	})
	c.mu.Lock()
	c.final = out
	c.mu.Unlock()
}

// Detections returns the final detection list — ordered by node id, then
// detection order at that node — once the cluster has stopped (via Close or
// a successful Shutdown). Before that it returns nil: the list is only final
// after teardown. The slice is shared between callers; treat it as
// read-only.
func (c *Cluster) Detections() []Detection {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final
}

// Workers returns the size of the worker pool draining this cluster's
// mailbox shards — the private pool's size, or the shared substrate's when
// the cluster rides one.
func (c *Cluster) Workers() int { return c.workers }

// MailboxBound returns the per-node mailbox bound applied to external
// producers.
func (c *Cluster) MailboxBound() int { return c.bound }

// Shared reports whether the cluster rides a shared scheduler substrate.
func (c *Cluster) Shared() bool { return c.shared != nil }

// Failed returns the processes killed so far, ascending.
func (c *Cluster) Failed() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.killed))
	for id := range c.killed {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Repairs returns the reattachments concluded so far, in conclusion order.
func (c *Cluster) Repairs() []RepairEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RepairEvent(nil), c.repairs...)
}

// post ships a message to a node's mailbox after delay, taking the message's
// pending credit first. During stopping the internal cascade is still
// allowed — Close drains it; only after stopped (ledger empty, so nothing
// can legally be in flight) is the message dropped. Zero-delay messages
// enqueue directly; delayed ones ride the wheel.
func (c *Cluster) post(to int, msg message, delay time.Duration) {
	dst, ok := c.nodes[to]
	if !ok {
		return
	}
	c.mu.Lock()
	if c.state == clusterStopped {
		c.mu.Unlock()
		return
	}
	c.pending++
	c.mu.Unlock()
	if delay <= 0 {
		c.enqueue(dst, msg, false)
		return
	}
	c.wheel.schedule(dst, msg, delay, 0)
}

// armTimer schedules a timer message, taking its pending credit at arm time:
// an armed timer keeps the ledger non-zero, so Close cannot tear the delivery
// plane down under a pending timer.
func (c *Cluster) armTimer(ln *liveNode, d time.Duration, msg message) {
	c.mu.Lock()
	if c.state == clusterStopped {
		c.mu.Unlock()
		return
	}
	c.pending++
	c.mu.Unlock()
	c.wheel.schedule(ln, msg, d, 0)
}

// takeFlushCredit reserves one ledger credit for an AdaptiveFlush drain-end
// flush — armTimer's role, without a timer. A buffered report must keep the
// ledger non-zero until its flush, or Drain and Close could observe quiescence with reports still sitting in outBuf. The
// credit is released by runNode after the flush runs (or after the buffer is
// discarded because the node went down). Returns false after stopped, when
// nothing may enter the ledger anymore.
func (c *Cluster) takeFlushCredit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == clusterStopped {
		return false
	}
	c.pending++
	return true
}

// done returns one message's credit to the ledger.
func (c *Cluster) done() {
	c.mu.Lock()
	c.pending--
	if c.pending == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// record stores a detection and emits its SolutionFound event. It runs on the detecting
// node's worker, so SolutionFound events keep that node's causal order.
func (c *Cluster) record(d Detection) {
	c.mu.Lock()
	c.dets = append(c.dets, d)
	c.mu.Unlock()
	c.emitEvent(obsv.Event{Kind: obsv.SolutionFound, Node: d.Node, Peer: obsv.NoPeer,
		Seq: d.Det.Agg.Seq, Count: 1, AtRoot: d.AtRoot, Agg: d.Det.Agg, Set: d.Det.Set})
}

// notifyRepair records a concluded reattachment and emits its
// RepairConcluded event outside the cluster lock.
func (c *Cluster) notifyRepair(orphan, newParent int) {
	c.mu.Lock()
	c.repairs = append(c.repairs, RepairEvent{Orphan: orphan, NewParent: newParent})
	c.mu.Unlock()
	c.emitEvent(obsv.Event{Kind: obsv.RepairConcluded, Node: orphan, Peer: newParent, Count: 1})
}

// send routes a message: through the in-process mailbox when this cluster
// hosts the destination (or is not distributed at all), wire-encoded over
// the transport otherwise. The transport is best-effort and asynchronous, so
// remote sends take no ledger credit — like the paper's network, a remote
// message in flight is outside any process's knowledge until it arrives.
func (c *Cluster) send(to int, msg message, delay time.Duration) {
	if _, local := c.nodes[to]; local || !c.remote {
		c.post(to, msg, delay)
		return
	}
	if msg.kind == msgReport {
		// Reports — the O(n)-sized hot-path messages — ride wire format v2
		// through a pooled scratch buffer. Send must not retain the frame
		// (transport.Transport contract), so the buffer recycles as soon as
		// it returns; per-link delta chaining, if any, happens inside the
		// transport against its own connection state.
		buf := wire.GetBuffer()
		*buf = wire.AppendReportV2(*buf, wire.Report{Iv: msg.iv, LinkSeq: msg.seq, Epoch: msg.epoch}, nil)
		c.cfg.Transport.Send(to, *buf)
		wire.PutBuffer(buf)
		return
	}
	if frame := encodeMessage(msg); frame != nil {
		c.cfg.Transport.Send(to, frame)
	}
}

// sendBatch routes a flushed report-batch: one in-process message when the
// destination is hosted here, one self-contained wire batch frame (reports
// delta-chained against each other inside the frame, encoded through a
// pooled buffer — the zero-allocation batched encode path) otherwise.
func (c *Cluster) sendBatch(to, from int, batch []repair.Report, born int64, delay time.Duration) {
	if _, local := c.nodes[to]; local || !c.remote {
		c.post(to, message{kind: msgReportBatch, from: from, reps: batch, born: born}, delay)
		return
	}
	buf := wire.GetBuffer()
	*buf = wire.AppendReportBatch(*buf, batch)
	c.cfg.Transport.Send(to, *buf)
	wire.PutBuffer(buf)
}

// encodeMessage wire-encodes a mailbox message for a remote peer. Timer kinds
// never travel; msgLocal never leaves its process; reports take the pooled
// v2 path in send.
func encodeMessage(msg message) []byte {
	switch msg.kind {
	case msgHeartbeat:
		return wire.EncodeHeartbeat(wire.Heartbeat{
			Sender: msg.from, Epoch: msg.epoch,
			RootSeeking: msg.hb.rootSeeking, Covered: msg.hb.covered,
		})
	case msgAttach:
		return wire.EncodeAttach(wire.Attach{From: msg.from, Msg: msg.att})
	default:
		panic(fmt.Sprintf("livenet: message kind %d cannot be wire-encoded", msg.kind))
	}
}

// onFrame is the transport's receive callback: decode, then hand the message
// to the addressed node through the same credited post as local traffic.
// Frames that fail to decode are counted and dropped — the wire package's
// typed errors guarantee a corrupt frame cannot crash the node, one of the
// satellite guarantees of the transport work.
func (c *Cluster) onFrame(to int, frame []byte) {
	ln, ok := c.nodes[to]
	if !ok {
		return // misrouted: addressed to a node another participant hosts
	}
	kind, err := wire.FrameKind(frame)
	if err != nil {
		ln.m.badFrames.Add(1)
		return
	}
	var msg message
	switch kind {
	case wire.KindReport:
		r, err := wire.DecodeReport(frame)
		if err != nil {
			ln.m.badFrames.Add(1)
			return
		}
		// A node only reports aggregates it created, so the interval's
		// origin identifies the sender.
		msg = message{kind: msgReport, from: r.Iv.Origin, seq: r.LinkSeq, epoch: r.Epoch, iv: r.Iv}
	case wire.KindReportBatch:
		batch, err := wire.DecodeReportBatch(frame)
		if err != nil || len(batch) == 0 {
			ln.m.badFrames.Add(1)
			return
		}
		msg = message{kind: msgReportBatch, from: batch[0].Iv.Origin, reps: batch}
	case wire.KindHeartbeat:
		hb, err := wire.DecodeHeartbeat(frame)
		if err != nil {
			ln.m.badFrames.Add(1)
			return
		}
		msg = message{kind: msgHeartbeat, from: hb.Sender, epoch: hb.Epoch,
			hb: hbInfo{rootSeeking: hb.RootSeeking, covered: hb.Covered}}
	case wire.KindAttach:
		a, err := wire.DecodeAttach(frame)
		if err != nil {
			ln.m.badFrames.Add(1)
			return
		}
		msg = message{kind: msgAttach, from: a.From, att: a.Msg}
	default:
		// Valid framing of a kind a bare cluster does not consume (a tenant
		// envelope that escaped its mux, or a future addition): dropped, not
		// a zero-value message.
		ln.m.badFrames.Add(1)
		return
	}
	c.post(to, msg, 0)
}

// rootSeekingLocked reports whether the root of id's current tree (per the
// mirror) is another node that is itself renegotiating a parent — in which
// case id must refuse adoption requests, or a cycle of dangling trees could
// form. The simulator propagates this flag on heartbeats; here the mirror is
// exact. Caller holds mu.
func (c *Cluster) rootSeekingLocked(id int) bool {
	r := id
	for c.topo.Parent(r) != tree.None {
		r = c.topo.Parent(r)
	}
	return r != id && c.seeking[r]
}
