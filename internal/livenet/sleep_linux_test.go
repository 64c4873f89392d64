package livenet

import (
	"testing"
	"time"
)

// TestSleeperBacksLateWakes: a timerfd wake that comes late — the sign of
// a netpoller nobody consults — backs the following sleeps with the read
// deadline, and a timerfd wake on time drops the deadline again.
func TestSleeperBacksLateWakes(t *testing.T) {
	s, ok := newSleeper().(*fdSleeper)
	if !ok {
		t.Skip("no timerfd on this kernel")
	}
	defer s.close()
	s.arm(time.Now().Add(50 * time.Microsecond))
	time.Sleep(5 * time.Millisecond) // the expiry waits unread: the wake is late
	s.wait()
	if !s.backed.Load() {
		t.Fatal("a wake 5ms late did not back the next sleep with the read deadline")
	}
	s.arm(time.Now().Add(time.Hour))
	if !s.deadlineSet {
		t.Fatal("backed arm set no read deadline")
	}
	// An idle timerfd wake takes tens of microseconds; retry in case a
	// loaded machine delays one past starveLag.
	for i := 0; s.backed.Load(); i++ {
		if i == 50 {
			t.Fatal("50 timerfd wakes in a row came later than starveLag")
		}
		s.arm(time.Now().Add(100 * time.Microsecond))
		s.wait()
	}
	s.arm(time.Now().Add(time.Hour))
	if s.deadlineSet {
		t.Fatal("unbacked arm left the read deadline in place")
	}
}
