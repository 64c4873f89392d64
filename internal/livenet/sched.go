package livenet

import "sync"

// sched.go — the delivery plane's mailbox shards and worker pool.
//
// Every node owns one bounded mailbox shard: a mutex-guarded slice the
// producers append to and a worker drains in one swap. A node is "scheduled"
// while its shard is non-empty and at most one worker runs a node at a time,
// so all per-node detector state stays single-writer exactly as it was when
// each node had its own goroutine — but the steady-state goroutine count is
// now the worker pool plus the timer wheel, independent of both p and the
// number of in-flight messages.
//
// Backpressure is asymmetric on purpose. External producers (Observe,
// ObserveBatch) block while the destination shard is at its bound — the
// cluster pushes back on the workload instead of buffering it without limit.
// Internal cascade traffic never blocks: a worker that blocked appending to
// a sibling's full shard could deadlock the pool, and cascade volume is
// bounded by the detection math (each accepted interval triggers a bounded
// report cascade), so the shards stay near the bound even under stress.

// runQueue is where enqueue puts a newly scheduled node for a worker to
// pick up. A standalone cluster's queue is its private channel drained by
// its private pool (chanQueue, exactly the pre-substrate behaviour); a
// cluster on a shared scheduler submits into the substrate's deficit-
// round-robin queue instead (schedClient in shared.go).
type runQueue interface {
	submit(ln *liveNode)
	depth() int
}

// chanQueue is the private run queue: the cluster-owned channel its own
// worker pool ranges over.
type chanQueue struct{ ch chan *liveNode }

func (q chanQueue) submit(ln *liveNode) { q.ch <- ln }
func (q chanQueue) depth() int          { return len(q.ch) }

// mailbox is one node's delivery shard.
type mailbox struct {
	mu        sync.Mutex
	notFull   sync.Cond
	buf       []message
	spare     []message // worker-owned swap buffer, recycled every drain
	scheduled bool
	high      int // high-water mark of len(buf), for Metrics
}

func (mb *mailbox) init() { mb.notFull.L = &mb.mu }

// enqueue appends msg to ln's shard and schedules the node on the run queue
// if it was idle. external marks producer traffic subject to the bound.
func (c *Cluster) enqueue(ln *liveNode, msg message, external bool) {
	mb := &ln.mb
	mb.mu.Lock()
	if external {
		for len(mb.buf) >= c.bound {
			mb.notFull.Wait()
		}
	}
	mb.buf = append(mb.buf, msg)
	if len(mb.buf) > mb.high {
		mb.high = len(mb.buf)
	}
	schedule := !mb.scheduled
	mb.scheduled = true
	mb.mu.Unlock()
	if schedule {
		c.sched.submit(ln)
	}
}

// worker is one pool goroutine: pop a scheduled node, drain its shard once,
// re-queue it if producers kept it non-empty. One drain per pop keeps the
// pool fair across nodes while still handing the detector whole batches. A
// nil pop is teardown's sentinel: the queue is never closed (late requeues
// must stay legal), each worker instead consumes exactly one sentinel and
// exits.
func (c *Cluster) worker() {
	defer c.wg.Done()
	for ln := range c.runq {
		if ln == nil {
			return
		}
		c.runNode(ln)
	}
}

// runNode drains one swap of ln's mailbox, returning the number of messages
// handled (the shared substrate charges the drain against the cluster's
// round-robin deficit). The scheduled flag stays set from the pop until the
// shard is observed empty, so no second worker can claim the node
// concurrently.
func (c *Cluster) runNode(ln *liveNode) int {
	c.busyWorkers.Add(1)
	defer c.busyWorkers.Add(-1)
	mb := &ln.mb
	mb.mu.Lock()
	batch := mb.buf
	mb.buf = mb.spare[:0]
	mb.spare = nil
	mb.mu.Unlock()
	mb.notFull.Broadcast()
	c.drains.Add(1)
	c.drained.Add(int64(len(batch)))
	c.drainHist.Observe(float64(len(batch)))

	// After the ledger drained and the state reached stopped, the only
	// messages left are uncredited heartbeat ticks from the wheel's last
	// turns; dropping them keeps post-Close events (child drops, repairs,
	// detections) from firing into a cluster the caller believes final.
	c.mu.Lock()
	stopped := c.state == clusterStopped
	c.mu.Unlock()

	down := ln.down.Load()
	for i := range batch {
		if !down && !stopped {
			ln.handle(batch[i])
		}
		if creditedKind(batch[i].kind) {
			c.done()
		}
		batch[i] = message{} // release interval/clock references
		down = ln.down.Load()
	}

	// AdaptiveFlush: the drain boundary is the coalescing edge. Everything
	// this drain's handlers emitted leaves as one batch now — the report
	// burst of one delivery batch, with no timer and no added latency — and
	// the buffer's ledger credit (taken at first buffer in emit) returns. A
	// node that crashed mid-drain loses its buffer, like any of its in-flight
	// messages.
	if ln.drainFlush {
		ln.drainFlush = false
		if down || stopped {
			ln.outBuf = ln.outBuf[:0]
		} else {
			ln.flushReports()
		}
		c.done()
	}

	mb.mu.Lock()
	if mb.spare == nil || cap(batch) > cap(mb.spare) {
		mb.spare = batch[:0]
	}
	requeue := len(mb.buf) > 0
	if !requeue {
		mb.scheduled = false
	}
	mb.mu.Unlock()
	if requeue {
		c.sched.submit(ln)
	}
	return len(batch)
}

// creditedKind reports whether a message kind holds a ledger credit. Only
// heartbeat ticks are uncredited: they are periodic background work that
// must not keep an idle cluster from stopping.
func creditedKind(k msgKind) bool { return k != msgHbTick }

// depths reads the shard's current depth and its high-water mark.
func (mb *mailbox) depths() (current, highWater int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.buf), mb.high
}
