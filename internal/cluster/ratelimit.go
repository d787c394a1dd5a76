package cluster

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RateLimiterOptions configures the per-client token bucket.
type RateLimiterOptions struct {
	// Rate is the sustained per-client request rate in req/s. Zero or
	// negative disables limiting entirely.
	Rate float64
	// Burst is the bucket depth (default 2×Rate, minimum 1): how far a
	// client may briefly exceed the sustained rate.
	Burst float64
	// MaxClients bounds the number of tracked buckets (default 4096);
	// beyond it, the stalest buckets are evicted. An evicted client's
	// next request starts a fresh (full) bucket — the bound trades a
	// little enforcement at the margin for bounded memory under
	// address-churning traffic.
	MaxClients int
}

func (o RateLimiterOptions) withDefaults() RateLimiterOptions {
	if o.Burst <= 0 {
		o.Burst = 2 * o.Rate
	}
	if o.Burst < 1 {
		o.Burst = 1
	}
	if o.MaxClients <= 0 {
		o.MaxClients = 4096
	}
	return o
}

// RateLimiter is a per-client token bucket: each client key (the
// remote IP, typically) accrues Rate tokens per second up to Burst,
// and each request spends one. All methods are safe for concurrent
// use.
type RateLimiter struct {
	opts RateLimiterOptions
	met  *metricsSet
	now  func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket //lint:guarded-by mu
}

// bucket is one client's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(opts RateLimiterOptions, met *metricsSet, now func() time.Time) *RateLimiter {
	if now == nil {
		now = time.Now
	}
	return &RateLimiter{
		opts:    opts.withDefaults(),
		met:     met,
		now:     now,
		buckets: map[string]*bucket{},
	}
}

// Enabled reports whether the limiter enforces anything.
func (l *RateLimiter) Enabled() bool { return l.opts.Rate > 0 }

// Allow spends one token from client's bucket, reporting whether the
// request may proceed.
func (l *RateLimiter) Allow(client string) bool {
	if !l.Enabled() {
		return true
	}
	now := l.now()
	l.mu.Lock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= l.opts.MaxClients {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.opts.Burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.opts.Rate
		if b.tokens > l.opts.Burst {
			b.tokens = l.opts.Burst
		}
		b.last = now
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
		l.met.rlAllowed.Inc()
	} else {
		l.met.rlLimited.Inc()
	}
	l.mu.Unlock()
	return ok
}

// evictLocked drops the buckets idle the longest, freeing a quarter of
// the capacity so eviction is amortized rather than per-insert.
// Callers must hold l.mu.
func (l *RateLimiter) evictLocked(now time.Time) {
	target := l.opts.MaxClients * 3 / 4
	// Collect idle-for durations; drop the stalest until under target.
	// Map order is irrelevant: victims are chosen by idle time.
	cutoff := 500 * time.Millisecond
	for len(l.buckets) > target {
		evicted := false
		// Eviction victims are chosen by idle time, not map order.
		for key, b := range l.buckets {
			if now.Sub(b.last) >= cutoff {
				delete(l.buckets, key)
				evicted = true
				if len(l.buckets) <= target {
					break
				}
			}
		}
		if !evicted {
			cutoff /= 2
			if cutoff <= 0 {
				// Everything is brand-new: drop arbitrarily.
				for key := range l.buckets {
					delete(l.buckets, key)
					if len(l.buckets) <= target {
						break
					}
				}
				return
			}
		}
	}
}

// Clients reports the number of tracked client buckets (the
// mira_ratelimit_clients gauge).
func (l *RateLimiter) Clients() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Limit writes the rate-limited response: 429 with a Retry-After of
// one second (the bucket refills continuously; a second is when a
// whole token is guaranteed back at any configured rate >= 1).
func (l *RateLimiter) Limit(w http.ResponseWriter) {
	retry := 1
	if l.opts.Rate > 0 && l.opts.Rate < 1 {
		retry = int(1/l.opts.Rate) + 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	// Best-effort: the 429 status is the contract; the body is a hint.
	_, _ = w.Write([]byte(`{"error":"rate limit exceeded"}` + "\n"))
}
