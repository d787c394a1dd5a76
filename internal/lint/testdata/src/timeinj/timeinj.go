// Package cluster is a timeinj fixture type-checked as
// mira/internal/cluster: the PR 8 wall-clock circuit breaker, written
// the way it originally flaked — Allow read time.Now directly, so the
// cooldown test had to really sleep, and stalled runners turned it
// into a flake.
package cluster

import "time"

// breaker mirrors the circuit breaker's time-dependent state.
type breaker struct {
	openedAt time.Time
	cooldown time.Duration
	now      func() time.Time
}

// allowWallClock is the original bug: the cooldown decision reads the
// wall clock, so no test can control it.
func (b *breaker) allowWallClock() bool {
	return time.Now().Sub(b.openedAt) >= b.cooldown // want "direct time.Now call"
}

// opened stamps the wall clock directly.
func (b *breaker) opened() {
	b.openedAt = time.Now() // want "direct time.Now call"
}

// age measures against the wall clock through Since.
func (b *breaker) age() time.Duration {
	return time.Since(b.openedAt) // want "direct time.Since call"
}

// expire arms a real timer; deadlines must derive from the injected
// clock instead.
func (b *breaker) expire() *time.Timer {
	return time.NewTimer(b.cooldown) // want "direct time.NewTimer call"
}

// allow reads the injectable clock: legal.
func (b *breaker) allow() bool {
	return b.now().Sub(b.openedAt) >= b.cooldown
}

// newBreaker defaults the clock by value reference: referencing
// time.Now (without calling it) is exactly how injection defaults.
func newBreaker(cooldown time.Duration) *breaker {
	b := &breaker{cooldown: cooldown}
	b.now = time.Now
	return b
}

// backoff really sleeps: time.Sleep is deliberately unflagged — retry
// backoff waits for real even under a fake decision clock.
func backoff() { time.Sleep(time.Millisecond) }
