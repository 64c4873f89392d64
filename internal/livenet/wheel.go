package livenet

import (
	"sync"
	"sync/atomic"
	"time"
)

// wheel is a hashed timer wheel: every delayed message, repair timeout and
// heartbeat tick it carries is one entry in one ring driven by one goroutine,
// so the delivery plane's timer work costs a single goroutine regardless of
// load — which is what lets the scale benchmarks run p ≥ 512 trees without
// drowning the scheduler.
//
// A wheel is not tied to one cluster: each entry remembers its node, and a
// node knows its cluster, so one wheel can serve a whole tenant plane (the
// shared scheduler substrate) exactly as it serves a standalone cluster's
// private instance. cancel(c) surgically removes one cluster's entries when
// that cluster stops underneath a shared wheel that keeps running.
//
// Layout: a power-of-two ring of slots, each a linked list of entries. An
// entry due in d is placed ceil(d/tick)-1 slots ahead of the cursor, with a
// rounds counter absorbing delays longer than one rotation. The goroutine
// sleeps until the next slot boundary (absolute deadlines against the wheel
// epoch, so processing jitter never accumulates), expires the slot, and
// re-arms recurring entries. When the wheel empties it parks on a channel
// and the epoch restarts on the next insert — an idle cluster burns no
// timer wakeups at all.
//
// Lifecycle: entries that deliver credited messages hold their ledger credit
// from insertion (the caller takes it) until the delivery is handled, so
// Cluster.Close's drain covers everything the wheel still owes. stop() — or,
// for one cluster under a shared wheel, cancel(c) — runs after the drain: by
// then only uncredited recurring entries (heartbeat ticks) remain, and they
// are discarded without firing.
type wheel struct {
	tick time.Duration

	mu     sync.Mutex
	slots  []*wheelEntry
	mask   int
	cursor int       // slot the next advance will expire
	count  int       // live entries across all slots
	epoch  time.Time // time of tick 0 of the current busy period
	ticked int64     // advances processed this busy period
	parked bool      // goroutine is waiting on kick
	// free is the entry freelist: expired one-shot and cancelled entries
	// recycle here instead of churning the allocator — at scale the wheel
	// turns over one entry per delayed message, the hottest allocation site
	// of the whole delivery plane.
	free *wheelEntry

	kick    chan struct{} // insert-into-empty-wheel wakeup (capacity 1)
	stopped chan struct{}
	done    chan struct{} // closed when the wheel goroutine has exited

	// lagObserve, when set before the goroutine starts, receives each
	// advance's lag in seconds (the shared substrate feeds a histogram).
	lagObserve func(float64)

	// Scrape-safe observability mirrors: how far past its deadline the last
	// advance ran, and total advances across all busy periods.
	lagNanos   atomic.Int64
	ticksTotal atomic.Int64
}

// wheelEntry is one scheduled delivery. Entries are owned by the wheel while
// queued and never shared, so they need no locks of their own.
type wheelEntry struct {
	ln     *liveNode
	msg    message
	rounds int
	// period re-arms the entry after each fire (heartbeat ticks). Recurring
	// entries are uncredited and die with the wheel — or earlier, when their
	// node is down or their cluster halted.
	period time.Duration
	next   *wheelEntry
}

// wheelSlots is the ring size. Delays land within one rotation as long as
// they are under wheelSlots×tick; longer ones (repair timeouts against a
// microsecond tick) ride the rounds counter.
const wheelSlots = 512

func newWheel(tick time.Duration) *wheel {
	if tick < 20*time.Microsecond {
		tick = 20 * time.Microsecond
	}
	if tick > time.Millisecond {
		tick = time.Millisecond
	}
	return &wheel{
		tick:    tick,
		slots:   make([]*wheelEntry, wheelSlots),
		mask:    wheelSlots - 1,
		parked:  true,
		kick:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// schedule inserts a one-shot or recurring (period > 0) entry due in d. The
// caller has already taken the entry's ledger credit if its message carries
// one.
func (w *wheel) schedule(ln *liveNode, msg message, d, period time.Duration) {
	w.mu.Lock()
	e := w.free
	if e != nil {
		w.free = e.next
		e.ln, e.msg, e.period, e.next = ln, msg, period, nil
	} else {
		e = &wheelEntry{ln: ln, msg: msg, period: period}
	}
	w.insertLocked(e, d)
	wake := w.parked
	w.mu.Unlock()
	if wake {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
}

// insertLocked places e due in d ticks from now. Caller holds mu.
func (w *wheel) insertLocked(e *wheelEntry, d time.Duration) {
	if w.count == 0 {
		// Empty wheel: restart the epoch so the loop does not spin through
		// the ticks that elapsed while it was parked.
		w.epoch = time.Now()
		w.ticked = 0
	}
	ticks := int((d + w.tick - 1) / w.tick)
	if ticks < 1 {
		ticks = 1
	}
	idx := (w.cursor + ticks - 1) & w.mask
	e.rounds = (ticks - 1) / wheelSlots
	e.next = w.slots[idx]
	w.slots[idx] = e
	w.count++
}

// releaseLocked recycles an entry that is out of every slot list. Caller
// holds mu.
func (w *wheel) releaseLocked(e *wheelEntry) {
	*e = wheelEntry{next: w.free} // release interval/clock references
	w.free = e
}

// run is the wheel goroutine. It signals exit on its own done channel (not
// any cluster's worker WaitGroup): teardown must know the wheel is fully gone
// before it sends the workers their stop sentinels, because an advancing
// wheel pushes nodes onto the run queue.
func (w *wheel) run() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		if w.count == 0 {
			w.parked = true
			w.mu.Unlock()
			select {
			case <-w.kick:
				continue
			case <-w.stopped:
				return
			}
		}
		w.parked = false
		deadline := w.epoch.Add(time.Duration(w.ticked+1) * w.tick)
		w.mu.Unlock()

		if wait := time.Until(deadline); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-w.stopped:
				w.drain()
				return
			}
		}
		lag := time.Since(deadline)
		w.lagNanos.Store(int64(lag))
		if w.lagObserve != nil {
			w.lagObserve(lag.Seconds())
		}
		w.advance()
	}
}

// advance expires the cursor slot: due entries are collected under the lock
// and delivered outside it (delivery takes mailbox locks), not-yet-due
// entries decrement rounds and stay, recurring entries re-arm after firing.
// Delivery routes through each entry's own cluster, so one wheel can carry
// many clusters' timers.
func (w *wheel) advance() {
	var due *wheelEntry
	w.mu.Lock()
	var keep *wheelEntry
	for e := w.slots[w.cursor]; e != nil; {
		next := e.next
		if e.rounds > 0 {
			e.rounds--
			e.next = keep
			keep = e
		} else {
			w.count--
			e.next = due
			due = e
		}
		e = next
	}
	w.slots[w.cursor] = keep
	w.cursor = (w.cursor + 1) & w.mask
	w.ticked++
	w.mu.Unlock()
	w.ticksTotal.Add(1)

	var rearm, spent *wheelEntry
	for e := due; e != nil; {
		next := e.next
		c := e.ln.c
		if e.msg.kind == msgHbTick && !e.ln.down.Load() && !c.remote {
			// Publish the single-process liveness beacon at fire time, not
			// handle time: a node whose mailbox is backed up with work is
			// busy, not dead, and must not be suspected for it.
			e.ln.beat.Store(time.Now().UnixNano())
		}
		c.enqueue(e.ln, e.msg, false)
		if e.period > 0 && !e.ln.down.Load() && !c.halted.Load() {
			e.next = rearm
			rearm = e
		} else {
			e.next = spent
			spent = e
		}
		e = next
	}
	if rearm != nil || spent != nil {
		w.mu.Lock()
		for e := rearm; e != nil; {
			next := e.next
			w.insertLocked(e, e.period)
			e = next
		}
		for e := spent; e != nil; {
			next := e.next
			w.releaseLocked(e)
			e = next
		}
		w.mu.Unlock()
	}
}

// entries reads the wheel's live entry count.
func (w *wheel) entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// stop cancels the wheel. It runs after the owning cluster's ledger drained
// (or, for a shared wheel, after every client cluster detached), so the
// surviving entries are uncredited (recurring ticks); credited strays —
// impossible by the drain argument, but cheap to honor — have their credits
// returned so no ledger accounting is ever lost.
func (w *wheel) stop() {
	close(w.stopped)
}

// cancel removes every entry belonging to one cluster — the shared-wheel
// counterpart of stop, run by Cluster.Close after that cluster's ledger
// drained while other clusters' timers keep running. Credited strays return
// their credits, same argument as drain.
func (w *wheel) cancel(c *Cluster) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		var keep *wheelEntry
		for e := w.slots[i]; e != nil; {
			next := e.next
			if e.ln.c == c {
				if e.period == 0 && creditedKind(e.msg.kind) {
					c.done()
				}
				w.count--
				w.releaseLocked(e)
			} else {
				e.next = keep
				keep = e
			}
			e = next
		}
		w.slots[i] = keep
	}
}

// drain discards every queued entry on the way out, returning stray credits.
func (w *wheel) drain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		for e := w.slots[i]; e != nil; e = e.next {
			if e.period == 0 && creditedKind(e.msg.kind) {
				e.ln.c.done()
			}
			w.count--
		}
		w.slots[i] = nil
	}
}
