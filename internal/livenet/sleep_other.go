//go:build !linux

package livenet

// newSleeper returns the portable sleeper: outside Linux the wheel sleeps on
// a time.Timer (see wheel.go).
func newSleeper() sleeper { return newTimerSleeper() }
