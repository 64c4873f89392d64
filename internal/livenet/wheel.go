package livenet

import (
	"math/bits"
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
// Layout: a power-of-two ring of slots, each a linked list of entries, plus
// two bitmaps over the slots — which hold any entry, and which hold a
// precise one. An entry due at now+d goes into the first slot whose
// deadline (absolute, against the wheel epoch, so processing jitter never
// accumulates) is at or after it, with a rounds counter absorbing delays
// longer than one rotation.
//
// Two precision classes. Deliveries (reports, report batches, attach
// messages) are precise: each tree level pays one, so a late delivery is
// detection latency. Timers (heartbeat ticks, seek timeouts and backoffs)
// may fire up to timerSlack late. The goroutine sleeps until the earlier of
// the next slot holding a precise entry and the next occupied slot plus
// timerSlack, then expires every slot that has come due, re-arming
// recurring entries a whole period after the slot they fired from. So a
// wheel carrying only heartbeats wakes about once per timerSlack, not once
// per tick, and an empty wheel sleeps unarmed until the next insert
// restarts the epoch.
//
// How it sleeps: on Linux on a timerfd read through the netpoller
// (sleep_linux.go), which wakes an idle runtime within microseconds where a
// Go timer would round a sub-millisecond sleep up to a millisecond. While
// timerfd wakes come late, as on Ps that never idle, a read deadline at the
// same instant backs it. Elsewhere, or if no timerfd can be made, on a
// time.Timer.
//
// The sleep is armed under mu, by the goroutine when it plans and by
// schedule when a new entry is due before the planned wake, so an arm never
// overwrites a newer, earlier one.
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
	occ    [wheelWords]uint64 // bit i: slot i holds an entry
	prec   [wheelWords]uint64 // bit i: slot i holds a precise entry
	cursor int                // slot the next advance will expire
	count  int                // live entries across all slots
	epoch  time.Time          // time of tick 0 of the current busy period
	ticked int64              // advances processed this busy period
	// idle: the wheel is empty and the goroutine sleeps unarmed; the next
	// insert restarts the epoch and arms the sleep. wakeAt is the planned
	// wake while the goroutine sleeps (in the past while it works, so
	// schedule leaves the sleep alone: the goroutine plans again anyway).
	idle     bool
	wakeAt   time.Time
	stopping bool
	sl       sleeper // set by the goroutine as it starts
	// free is the entry freelist: expired one-shot and cancelled entries
	// recycle here instead of churning the allocator — at scale the wheel
	// turns over one entry per delayed message, the hottest allocation site
	// of the whole delivery plane.
	free *wheelEntry

	done chan struct{} // closed when the wheel goroutine has exited

	// lagObserve, when set before the goroutine starts, receives each
	// firing slot's lag in seconds (the shared substrate feeds a histogram).
	lagObserve func(float64)

	// Scrape-safe observability mirrors: how far past its due time the last
	// firing slot ran, total advances across all busy periods, and total
	// wakeups of the goroutine.
	lagNanos   atomic.Int64
	ticksTotal atomic.Int64
	wakes      atomic.Int64
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
const (
	wheelSlots = 512
	wheelWords = wheelSlots / 64
)

// timerSlack is how late a timer-class entry may fire (see preciseKind).
const timerSlack = time.Millisecond

// preciseKind reports whether entries of a kind fire at their slot's
// deadline rather than up to timerSlack after it: the deliveries whose
// delay every tree level pays, as opposed to timers.
func preciseKind(k msgKind) bool {
	return k == msgReport || k == msgReportBatch || k == msgAttach
}

// sleeper is what the wheel goroutine sleeps on. arm and disarm replace any
// earlier arming and are serialized by the wheel's mutex; wait returns once
// the armed instant has passed and may be called by the goroutine only.
type sleeper interface {
	arm(at time.Time) // fire at at (at once if it has passed)
	disarm()          // never fire until armed again
	wait()
	close()
}

// timerSleeper is the portable sleeper. Go ≥ 1.23 timer semantics make Reset
// and Stop discard any fire not yet received, so wait never sees a stale one.
type timerSleeper struct{ t *time.Timer }

func newTimerSleeper() *timerSleeper {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerSleeper{t: t}
}

func (s *timerSleeper) arm(at time.Time) { s.t.Reset(time.Until(at)) }
func (s *timerSleeper) disarm()          { s.t.Stop() }
func (s *timerSleeper) wait()            { <-s.t.C }
func (s *timerSleeper) close()           { s.t.Stop() }

func newWheel(tick time.Duration) *wheel {
	if tick < 20*time.Microsecond {
		tick = 20 * time.Microsecond
	}
	if tick > time.Millisecond {
		tick = time.Millisecond
	}
	return &wheel{
		tick:  tick,
		slots: make([]*wheelEntry, wheelSlots),
		idle:  true,
		done:  make(chan struct{}),
	}
}

// schedule inserts a one-shot or recurring (period > 0) entry due in d. The
// caller has already taken the entry's ledger credit if its message carries
// one. The sleep is re-armed only when the entry is due before the planned
// wake.
func (w *wheel) schedule(ln *liveNode, msg message, d, period time.Duration) {
	w.mu.Lock()
	e := w.free
	if e != nil {
		w.free = e.next
		e.ln, e.msg, e.period, e.next = ln, msg, period, nil
	} else {
		e = &wheelEntry{ln: ln, msg: msg, period: period}
	}
	now := time.Now()
	wasIdle := w.idle
	if wasIdle {
		// Restart the epoch so the goroutine does not spin through the
		// ticks that elapsed while the wheel was empty.
		w.epoch, w.ticked, w.idle = now, 0, false
	}
	// The first slot whose deadline is at or after now+d: the cursor may
	// trail the clock by up to timerSlack, so the offset is taken from the
	// epoch, not from the cursor.
	t := int64((now.Add(d).Sub(w.epoch)+w.tick-1)/w.tick) - 1 - w.ticked
	off := int(max(t, 0))
	w.insertLocked(e, off)
	if w.sl != nil && !w.stopping {
		at := w.deadline(off)
		if !preciseKind(msg.kind) {
			at = at.Add(timerSlack)
		}
		if wasIdle || at.Before(w.wakeAt) {
			w.wakeAt = at
			w.sl.arm(at)
		}
	}
	w.mu.Unlock()
}

// insertLocked links e into the slot off slots past the cursor. Caller
// holds mu.
func (w *wheel) insertLocked(e *wheelEntry, off int) {
	idx := (w.cursor + off) & (wheelSlots - 1)
	e.rounds = off / wheelSlots
	e.next = w.slots[idx]
	w.slots[idx] = e
	w.occ[idx>>6] |= 1 << (idx & 63)
	if preciseKind(e.msg.kind) {
		w.prec[idx>>6] |= 1 << (idx & 63)
	}
	w.count++
}

// deadline is when the slot off slots past the cursor comes due.
func (w *wheel) deadline(off int) time.Time {
	return w.epoch.Add(time.Duration(w.ticked+int64(off)+1) * w.tick)
}

// nextSet returns how many slots past the cursor the first slot with its bit
// set in b lies, or -1 when no bit is set.
func (w *wheel) nextSet(b *[wheelWords]uint64) int {
	from := w.cursor
	for i := 0; i <= wheelWords; i++ {
		word := b[(from>>6+i)%wheelWords]
		switch i {
		case 0:
			word &= ^uint64(0) << (from & 63)
		case wheelWords:
			word &= 1<<(from&63) - 1 // the first word's bits below the cursor
		}
		if word != 0 {
			idx := ((from>>6+i)%wheelWords)<<6 + bits.TrailingZeros64(word)
			return (idx - from) & (wheelSlots - 1)
		}
	}
	return -1
}

// planLocked returns when the goroutine must next wake: the deadline of the
// next slot holding a precise entry, or the next occupied slot's deadline
// plus timerSlack, whichever is earlier. ok is false when the wheel is
// empty. A precise entry still rounds away counts from its slot's next
// pass, which costs at most one early wake per rotation.
func (w *wheel) planLocked() (at time.Time, ok bool) {
	off := w.nextSet(&w.occ)
	if off < 0 {
		return time.Time{}, false
	}
	at = w.deadline(off).Add(timerSlack)
	if p := w.nextSet(&w.prec); p >= 0 {
		if d := w.deadline(p); d.Before(at) {
			at = d
		}
	}
	return at, true
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
// wheel pushes nodes onto the run queue. It owns the sleeper: it makes it
// here, off the path of New, and releases it on the way out. Until then
// schedule arms nothing, and the first plan covers what it inserted.
func (w *wheel) run() {
	defer close(w.done)
	sl := newSleeper()
	defer sl.close()
	w.mu.Lock()
	w.sl = sl
	w.mu.Unlock()
	for {
		w.mu.Lock()
		if w.stopping {
			w.mu.Unlock()
			w.drain()
			return
		}
		now := time.Now()
		due, dueAt, expired := w.expireLocked(now)
		if !expired {
			if at, ok := w.planLocked(); ok {
				w.wakeAt = at
				sl.arm(at)
			} else {
				w.idle = true
				sl.disarm()
			}
			w.mu.Unlock()
			sl.wait()
			w.wakes.Add(1)
			continue
		}
		w.mu.Unlock()
		if due != nil {
			lag := max(now.Sub(dueAt), 0)
			w.lagNanos.Store(int64(lag))
			if w.lagObserve != nil {
				w.lagObserve(lag.Seconds())
			}
			w.fire(due)
		}
	}
}

// expireLocked advances the cursor over the slots that have come due by
// now, stopping after the first occupied one so its entries fire — and
// recurring ones re-arm a period after that slot — before later slots are
// examined. Not-yet-due entries decrement rounds and stay. expired reports
// whether it stopped at an occupied slot; due lists the entries to fire and
// dueAt when they were due (a slot holding only timers was due timerSlack
// after its deadline). Caller holds mu.
func (w *wheel) expireLocked(now time.Time) (due *wheelEntry, dueAt time.Time, expired bool) {
	advanced := int64(0)
	for w.count > 0 && !w.deadline(0).After(now) {
		i := w.cursor
		word, bit := i>>6, uint64(1)<<(i&63)
		if w.occ[word]&bit != 0 {
			expired = true
			dueAt = w.deadline(0)
			if w.prec[word]&bit == 0 {
				dueAt = dueAt.Add(timerSlack)
			}
			var keep *wheelEntry
			keepPrecise := false
			for e := w.slots[i]; e != nil; {
				next := e.next
				if e.rounds > 0 {
					e.rounds--
					e.next = keep
					keep = e
					keepPrecise = keepPrecise || preciseKind(e.msg.kind)
				} else {
					w.count--
					e.next = due
					due = e
				}
				e = next
			}
			w.slots[i] = keep
			if keep == nil {
				w.occ[word] &^= bit
			}
			if !keepPrecise {
				w.prec[word] &^= bit
			}
		}
		w.cursor = (i + 1) & (wheelSlots - 1)
		w.ticked++
		advanced++
		if expired {
			break
		}
	}
	w.ticksTotal.Add(advanced)
	return due, dueAt, expired
}

// fire delivers one expired slot's due entries outside the lock (delivery
// takes mailbox locks) and re-arms the recurring ones. Delivery routes
// through each entry's own cluster, so one wheel can carry many clusters'
// timers.
func (w *wheel) fire(due *wheelEntry) {
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
	w.mu.Lock()
	for e := rearm; e != nil; {
		next := e.next
		// The cursor sits just past the slot e fired from, so this lands
		// a whole period after that slot's deadline: no drift.
		ticks := int((e.period + w.tick - 1) / w.tick)
		w.insertLocked(e, max(ticks-1, 0))
		e = next
	}
	for e := spent; e != nil; {
		next := e.next
		w.releaseLocked(e)
		e = next
	}
	w.mu.Unlock()
}

// entries reads the wheel's live entry count.
func (w *wheel) entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// stop cancels the wheel and wakes its goroutine, which discards what is
// left (drain), releases its sleeper and exits. It runs after the owning
// cluster's ledger drained (or, for a shared wheel, after every client
// cluster detached), so the surviving entries are uncredited (recurring
// ticks); credited strays — impossible by the drain argument, but cheap to
// honor — have their credits returned so no ledger accounting is ever lost.
func (w *wheel) stop() {
	w.mu.Lock()
	w.stopping = true
	if w.sl != nil {
		w.sl.arm(time.Now())
	}
	w.mu.Unlock()
}

// cancel removes every entry belonging to one cluster — the shared-wheel
// counterpart of stop, run by Cluster.Close after that cluster's ledger
// drained while other clusters' timers keep running. Credited strays return
// their credits, same argument as drain. The planned wake stays: at worst
// the goroutine wakes once for a slot that emptied.
func (w *wheel) cancel(c *Cluster) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		var keep *wheelEntry
		keepPrecise := false
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
				keepPrecise = keepPrecise || preciseKind(e.msg.kind)
			}
			e = next
		}
		w.slots[i] = keep
		word, bit := i>>6, uint64(1)<<(i&63)
		if keep == nil {
			w.occ[word] &^= bit
		}
		if !keepPrecise {
			w.prec[word] &^= bit
		}
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
	w.occ, w.prec = [wheelWords]uint64{}, [wheelWords]uint64{}
}
