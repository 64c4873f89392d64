//go:build linux

package livenet

import (
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// fdSleeper sleeps on a non-blocking timerfd, backed by a read deadline at
// the same instant while the timerfd has been seen to wake late.
//
//   - The timerfd covers an idle runtime. os.NewFile registers a
//     non-blocking descriptor with the netpoller, so wait parks the
//     goroutine there, and the timerfd turning readable wakes it within
//     microseconds. A Go timer would land a millisecond late: a P with
//     nothing to run blocks in netpoll, whose timeout is in whole
//     milliseconds.
//   - The read deadline covers a runtime whose Ps never idle. It is a
//     runtime timer, which every P checks as it schedules, while the
//     netpoller is only consulted when a P runs out of work — or by sysmon
//     every 10ms. Setting it costs a timer update on every sleep, so it is
//     set only after a timerfd wake came more than starveLag late, and
//     dropped once a timerfd wake comes on time again.
type fdSleeper struct {
	f    *os.File
	rc   syscall.RawConn
	spec itimerspec
	set  func(fd uintptr) // bound once: passing it to Control allocates nothing
	buf  [8]byte

	// base anchors armedAt, the armed instant as a monotonic offset; wait
	// reads it while a concurrent arm may write it.
	base    time.Time
	armedAt atomic.Int64
	// backed: wait saw the last timerfd wake come late, so arm sets the
	// deadline too. deadlineSet is arm's own record of a deadline left in
	// place, guarded like arm itself by the wheel's mutex.
	backed      atomic.Bool
	deadlineSet bool
}

// starveLag is how late a timerfd wake must come to count as the netpoller
// being starved: far past the tens of microseconds the wake takes when a P
// is free to poll, far short of sysmon's 10ms.
const starveLag = timerSlack / 4

// itimerspec mirrors struct itimerspec; syscall.Timespec has each
// architecture's layout.
type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// newSleeper returns a timerfd sleeper, or the portable one when the kernel
// refuses a timerfd or the runtime cannot poll it.
func newSleeper() sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return newTimerSleeper()
	}
	s := &fdSleeper{f: os.NewFile(fd, "timerfd"), base: time.Now()}
	rc, err := s.f.SyscallConn()
	if err == nil {
		err = s.f.SetReadDeadline(time.Time{}) // fails unless the netpoller took the fd
	}
	if err != nil {
		_ = s.f.Close() // nothing was written
		return newTimerSleeper()
	}
	s.rc = rc
	s.set = s.settime
	return s
}

// settime arms the timerfd with s.spec. It cannot fail: the descriptor is a
// timerfd the wheel goroutine keeps open until it exits, and the spec is a
// valid relative time.
func (s *fdSleeper) settime(fd uintptr) {
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&s.spec)), 0, 0, 0)
}

// arm sets the timerfd, and the deadline while backed. Deadline errors,
// like Control's, come only from a closed file (see settime).
func (s *fdSleeper) arm(at time.Time) {
	s.armedAt.Store(int64(at.Sub(s.base)))
	// A zero it_value would disarm, so "now" is one nanosecond.
	s.spec.value = syscall.NsecToTimespec(max(int64(time.Until(at)), 1))
	_ = s.rc.Control(s.set)
	switch {
	case s.backed.Load():
		_ = s.f.SetReadDeadline(at)
		s.deadlineSet = true
	case s.deadlineSet:
		_ = s.f.SetReadDeadline(time.Time{})
		s.deadlineSet = false
	}
}

func (s *fdSleeper) disarm() {
	s.spec.value = syscall.Timespec{}
	_ = s.rc.Control(s.set)
	if s.deadlineSet {
		_ = s.f.SetReadDeadline(time.Time{})
		s.deadlineSet = false
	}
}

// wait reads the expiration count, or gives up at the read deadline.
// Re-arming before expiry resets the timerfd, so the read returns at the
// latest arming's instant. The read must come before any park: the poller
// forgets readiness it saw before the wait began, so an expiry that came
// first would otherwise be missed. A timerfd wake decides whether the next
// sleeps need the deadline; a deadline wake leaves that as it is. The read
// cannot fail otherwise while the file is open.
func (s *fdSleeper) wait() {
	if _, err := s.f.Read(s.buf[:]); err == nil {
		late := time.Since(s.base) - time.Duration(s.armedAt.Load())
		s.backed.Store(late > starveLag)
	}
}

func (s *fdSleeper) close() { _ = s.f.Close() } // nothing was written
