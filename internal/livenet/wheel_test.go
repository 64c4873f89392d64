package livenet

import (
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/tree"
)

// stampQueue is a run queue that records when the wheel hands it a node and
// empties the node's mailbox on the spot, so every delivery reaches it. It
// lets a test time wheel deliveries with no worker pool in the way.
type stampQueue struct{ at chan time.Time }

func (q stampQueue) submit(ln *liveNode) {
	now := time.Now()
	ln.mb.mu.Lock()
	ln.mb.buf, ln.mb.scheduled = ln.mb.buf[:0], false
	ln.mb.mu.Unlock()
	q.at <- now
}

func (q stampQueue) depth() int { return 0 }

// stampNode builds a bare cluster with one node whose deliveries land on a
// fresh stampQueue. pending pre-loads the ledger with the credits the test's
// credited entries will return if the wheel discards them.
func stampNode(pending int) (*liveNode, stampQueue) {
	q := stampQueue{at: make(chan time.Time, 1024)}
	c := &Cluster{sched: q, pending: pending}
	c.cond = sync.NewCond(&c.mu)
	ln := &liveNode{c: c}
	ln.mb.init()
	return ln, q
}

// lateness schedules n precise entries of delay d on w one after another,
// each only once the last has been delivered, and returns the median of how
// far past its due time each delivery came. Between entries nothing else
// runs, so the runtime is idle: the case where a Go timer rounds a
// sub-millisecond sleep up to a millisecond.
func lateness(t *testing.T, w *wheel, ln *liveNode, q stampQueue, n int, d time.Duration) time.Duration {
	t.Helper()
	late := make([]time.Duration, n)
	for i := range late {
		due := time.Now().Add(d)
		w.schedule(ln, message{kind: msgReport}, d, 0)
		select {
		case at := <-q.at:
			late[i] = at.Sub(due)
		case <-time.After(5 * time.Second):
			t.Fatalf("entry %d of %v never delivered", i, d)
		}
	}
	slices.Sort(late)
	return late[n/2]
}

// checkBits verifies the wheel's occupancy and precision bitmaps and its
// entry count against the slot lists.
func checkBits(t *testing.T, w *wheel) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for i, head := range w.slots {
		precise := false
		for e := head; e != nil; e = e.next {
			n++
			precise = precise || preciseKind(e.msg.kind)
		}
		occ := w.occ[i>>6]&(1<<(i&63)) != 0
		prec := w.prec[i>>6]&(1<<(i&63)) != 0
		if occ != (head != nil) || prec != precise {
			t.Fatalf("slot %d: occupied bit %v precise bit %v, list occupied %v precise %v",
				i, occ, prec, head != nil, precise)
		}
	}
	if n != w.count {
		t.Fatalf("count = %d, slot lists hold %d", w.count, n)
	}
}

// TestWheelPreciseLateness: on an idle runtime the wheel delivers 100µs
// entries well inside a millisecond. A time.Timer sleep lands about 1ms
// late there (netpoll's timeout is in whole milliseconds); the timerfd
// sleep keeps MaxDelay's bound. Outside Linux the wheel falls back to a
// time.Timer, so the bound is not promised.
func TestWheelPreciseLateness(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("precise wheel sleeps need a timerfd")
	}
	w := newWheel(25 * time.Microsecond)
	go w.run()
	defer func() { w.stop(); <-w.done }()
	ln, q := stampNode(0)
	if p50 := lateness(t, w, ln, q, 500, 100*time.Microsecond); p50 > 300*time.Microsecond {
		t.Fatalf("p50 lateness of 100µs deliveries = %v, want < 300µs", p50)
	}
}

// TestWheelPreciseLatenessBusy: deliveries stay on time while every P is
// kept busy, the other side of the idle case above.
func TestWheelPreciseLatenessBusy(t *testing.T) {
	w := newWheel(25 * time.Microsecond)
	go w.run()
	defer func() { w.stop(); <-w.done }()
	var stop atomic.Bool
	var spinners sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			for !stop.Load() {
				runtime.Gosched()
			}
		}()
	}
	ln, q := stampNode(0)
	p50 := lateness(t, w, ln, q, 200, 100*time.Microsecond)
	stop.Store(true)
	spinners.Wait()
	if p50 > time.Millisecond {
		t.Fatalf("p50 lateness of 100µs deliveries on busy Ps = %v, want < 1ms", p50)
	}
}

// TestWheelStopWakesSleep: stop must wake a goroutine sleeping toward a
// far-off entry, not wait the entry out. The 1ms tick makes one rotation
// 512ms, so the sleep is not cut short by a rounds-counter pass either.
func TestWheelStopWakesSleep(t *testing.T) {
	w := newWheel(time.Millisecond)
	go w.run()
	ln, _ := stampNode(0)
	w.schedule(ln, message{kind: msgHbTick}, 10*time.Second, 10*time.Second)
	time.Sleep(5 * time.Millisecond) // let the goroutine plan and sleep
	start := time.Now()
	w.stop()
	select {
	case <-w.done:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("wheel goroutine still sleeping 100ms after stop")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("stop took %v", d)
	}
}

// TestWheelReleasesDescriptor: each standalone cluster's wheel owns a
// timerfd on Linux; Close must release it, so building and closing many
// clusters leaves the process's descriptor count where it was.
func TestWheelReleasesDescriptor(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	topo := tree.Star(3)
	// The first pollable file starts the runtime's netpoller, which keeps
	// descriptors of its own open for good.
	New(Config{Topology: topo}).Close()
	before := fds()
	for i := 0; i < 200; i++ {
		New(Config{Topology: topo, Seed: int64(i)}).Close()
	}
	if after := fds(); after != before {
		t.Fatalf("open descriptors %d → %d after 200 clusters built and closed", before, after)
	}
}

// TestWheelIdleWakeups: an idle cluster's wheel carries only heartbeat
// ticks, which may fire up to timerSlack late, so it wakes about once per
// timerSlack — not once per 25µs tick, which would cost an idle 63-node
// cluster most of a core.
func TestWheelIdleWakeups(t *testing.T) {
	c := New(Config{Topology: tree.Balanced(2, 5), HbEvery: 5 * time.Millisecond})
	defer c.Close()
	time.Sleep(20 * time.Millisecond) // past the staggered first beats
	const window = 200 * time.Millisecond
	w0, start := c.wheel.wakes.Load(), time.Now()
	time.Sleep(window)
	wakes, elapsed := c.wheel.wakes.Load()-w0, time.Since(start)
	if perMs := float64(wakes) / float64(elapsed.Milliseconds()); perMs > 1.2 {
		t.Fatalf("idle wheel woke %d times in %v (%.2f/ms), want ≤ 1.2/ms", wakes, elapsed, perMs)
	}
}

// TestWheelCancelWhileSleeping: cancelling one cluster's entries off a
// shared wheel whose goroutine is asleep keeps the bitmaps exact, and the
// remaining cluster's later precise entries still fire on time.
func TestWheelCancelWhileSleeping(t *testing.T) {
	w := newWheel(25 * time.Microsecond)
	go w.run()
	defer func() { w.stop(); <-w.done }()
	const n = 64
	gone, _ := stampNode(n)
	kept, q := stampNode(0)
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * 300 * time.Microsecond
		w.schedule(gone, message{kind: msgReport}, time.Second+d, 0)
		w.schedule(kept, message{kind: msgHbTick}, time.Second+d, time.Second)
	}
	time.Sleep(5 * time.Millisecond) // let the goroutine plan and sleep
	checkBits(t, w)
	w.cancel(gone.c)
	checkBits(t, w)
	if got := w.entries(); got != n {
		t.Fatalf("entries after cancel = %d, want %d", got, n)
	}
	if gone.c.pending != 0 {
		t.Fatalf("cancelled cluster's ledger = %d, want 0 (credits returned)", gone.c.pending)
	}
	// On time means as a precise entry, not as a timer up to timerSlack late.
	p50 := lateness(t, w, kept, q, 100, 100*time.Microsecond)
	if runtime.GOOS == "linux" && p50 > timerSlack/2 {
		t.Fatalf("p50 lateness after cancel = %v, want < %v", p50, timerSlack/2)
	}
	checkBits(t, w)
}
