package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"mira/internal/cluster"
	"mira/internal/obs"
)

// Class is a request's QoS class. Interactive traffic (/query,
// /analyze) is latency-sensitive and small; bulk traffic (/sweep,
// /report) is throughput work that can retry. Control traffic
// (metrics, health, the peer protocol) is never limited or shed — a
// saturated daemon must still answer its health checks and its
// siblings.
type Class int

const (
	ClassControl Class = iota
	ClassInteractive
	ClassBulk
)

func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBulk:
		return "bulk"
	}
	return "control"
}

// ClassOf maps a request path to its QoS class.
func ClassOf(path string) Class {
	switch path {
	case "/query", "/analyze":
		return ClassInteractive
	case "/sweep", "/report":
		return ClassBulk
	}
	return ClassControl
}

// frontDoor is every daemon's admission chain, applied outside the API
// mux: per-client rate limiting (429), then per-class concurrency
// admission (503 + Retry-After). Control traffic — health, metrics, the
// peer protocol — always passes: a saturated daemon must still answer
// its health checks and its siblings. On a clustered daemon, requests
// already forwarded by a sibling skip the rate limiter (the sibling's
// client already spent a token there) but still count against
// admission, which protects this replica's memory. Any client could set
// the forwarded header, so it counts only on a request whose remote
// address is a ring peer's host; a lone daemon has no peers and ignores
// it. A peer named by hostname rather than IP address never matches a
// remote address, so what it forwards is rate-limited like any client.
func (s *server) frontDoor(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := ClassOf(r.URL.Path)
		if class == ClassControl {
			next.ServeHTTP(w, r)
			return
		}
		forwarded := r.Header.Get(cluster.ForwardedHeader) != "" && s.peerHosts[canonicalHost(clientKey(r))]
		if s.limiter.Enabled() && !forwarded && !s.limiter.Allow(clientKey(r)) {
			s.reqErrors.Inc()
			s.limiter.Limit(w)
			return
		}
		release, ok := s.admission.Admit(class)
		if !ok {
			s.reqErrors.Inc()
			s.admission.Shed(w)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies a client for rate limiting: the remote IP,
// ignoring the ephemeral port so one client's connections share a
// bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// peerHosts returns the hosts of a clustered daemon's ring members, IP
// addresses in canonical form, or nil for a lone daemon.
func peerHosts(node *cluster.Node) map[string]bool {
	if node == nil {
		return nil
	}
	out := map[string]bool{}
	for _, p := range node.Ring.Peers() {
		if u, err := url.Parse(p); err == nil && u.Hostname() != "" {
			out[canonicalHost(u.Hostname())] = true
		}
	}
	return out
}

// canonicalHost writes an IP address in one form (an IPv4-mapped IPv6
// address as IPv4), so a peer's URL host and a remote address compare
// equal; any other host is returned as it is.
func canonicalHost(host string) string {
	if a, err := netip.ParseAddr(host); err == nil {
		return a.Unmap().String()
	}
	return host
}

// AdmissionOptions sizes the per-class concurrency gates.
type AdmissionOptions struct {
	// InteractiveSlots bounds concurrently admitted interactive
	// requests (default 256: interactive work is memo-lookup cheap,
	// the bound exists to survive pathological bursts).
	InteractiveSlots int
	// BulkSlots bounds concurrently admitted bulk requests (default
	// 4). Bulk requests are 64k-point sweeps and multi-section
	// reports: a handful saturate the worker pool, and queueing more
	// of them is how a daemon OOMs. Excess bulk load is shed with
	// Retry-After instead.
	BulkSlots int
}

// shedRetryAfter is the Retry-After hint, in seconds, of every shed
// response.
const shedRetryAfter = "1"

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.InteractiveSlots <= 0 {
		o.InteractiveSlots = 256
	}
	if o.BulkSlots <= 0 {
		o.BulkSlots = 4
	}
	return o
}

// Admission is the per-class admission controller: a fixed number of
// concurrency slots per QoS class, acquired non-blocking. A request
// that finds its class full is shed immediately — 503 with a
// Retry-After hint — rather than queued; queued bulk work is memory
// waiting to OOM, and a shed is a signal the client can act on.
type Admission struct {
	interactive *classGate
	bulk        *classGate
}

// classGate is one class's slot pool plus its instruments. release is
// built once with the gate, so admitting a request allocates nothing.
type classGate struct {
	slots    chan struct{}
	admitted *obs.Counter
	shed     *obs.Counter
	inflight *obs.Gauge
	release  func()
}

// newAdmission builds the gates and registers their mira_admission_*
// instruments in reg.
func newAdmission(opts AdmissionOptions, reg *obs.Registry) *Admission {
	opts = opts.withDefaults()
	return &Admission{
		interactive: newClassGate(opts.InteractiveSlots,
			reg.Counter("mira_admission_interactive_admitted", "interactive requests admitted"),
			reg.Counter("mira_admission_interactive_shed", "interactive requests shed under load"),
			reg.Gauge("mira_admission_interactive_inflight", "interactive requests currently admitted")),
		bulk: newClassGate(opts.BulkSlots,
			reg.Counter("mira_admission_bulk_admitted", "bulk requests admitted"),
			reg.Counter("mira_admission_bulk_shed", "bulk requests shed under load"),
			reg.Gauge("mira_admission_bulk_inflight", "bulk requests currently admitted")),
	}
}

func newClassGate(slots int, admitted, shed *obs.Counter, inflight *obs.Gauge) *classGate {
	g := &classGate{slots: make(chan struct{}, slots), admitted: admitted, shed: shed, inflight: inflight}
	g.release = func() {
		g.inflight.Dec()
		<-g.slots
	}
	return g
}

// gate returns the gate for class, or nil for control traffic.
func (a *Admission) gate(class Class) *classGate {
	switch class {
	case ClassInteractive:
		return a.interactive
	case ClassBulk:
		return a.bulk
	}
	return nil
}

// Admit tries to claim a slot for class. On success the returned
// release must be called exactly once when the request finishes. On
// failure (the class is saturated) release is nil and the caller
// sheds the request.
func (a *Admission) Admit(class Class) (release func(), ok bool) {
	g := a.gate(class)
	if g == nil {
		return func() {}, true
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Inc()
		g.inflight.Inc()
		return g.release, true
	default:
		g.shed.Inc()
		return nil, false
	}
}

// Shed writes the shed response for a refused request: 503 with a
// Retry-After hint, the contract a cluster front-end and a well-
// behaved client both understand.
func (a *Admission) Shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", shedRetryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	// Best-effort: the 503 status is the contract; the body is a hint.
	_, _ = w.Write([]byte(`{"error":"overloaded, retry later"}` + "\n"))
}

// Saturated reports whether the interactive class is at capacity —
// the readiness signal: a daemon shedding interactive traffic should
// stop receiving routed requests until it drains.
func (a *Admission) Saturated() bool {
	return len(a.interactive.slots) == cap(a.interactive.slots)
}

// InteractiveInflight reports the interactive class's admitted count
// (for /readyz detail).
func (a *Admission) InteractiveInflight() int { return len(a.interactive.slots) }

// BulkInflight reports the bulk class's admitted count.
func (a *Admission) BulkInflight() int { return len(a.bulk.slots) }

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
	opts    RateLimiterOptions
	allowed *obs.Counter
	limited *obs.Counter
	now     func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket //lint:guarded-by mu
}

// bucket is one client's token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// newRateLimiter builds the limiter over the clock now (nil means
// time.Now) and registers its mira_ratelimit_* instruments in reg.
func newRateLimiter(opts RateLimiterOptions, reg *obs.Registry, now func() time.Time) *RateLimiter {
	if now == nil {
		now = time.Now
	}
	l := &RateLimiter{
		opts:    opts.withDefaults(),
		allowed: reg.Counter("mira_ratelimit_allowed", "requests that passed the per-client token bucket"),
		limited: reg.Counter("mira_ratelimit_limited", "requests refused by the per-client token bucket"),
		now:     now,
		buckets: map[string]*bucket{},
	}
	reg.GaugeFunc("mira_ratelimit_clients", "client token buckets currently tracked", func() float64 {
		return float64(l.Clients())
	})
	return l
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
		l.allowed.Inc()
	} else {
		l.limited.Inc()
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

// routeKey resolves the content key a request addresses: an explicit
// key wins; inline source hashes to the key it would analyze under.
// Empty means the request names nothing routable.
func (s *server) routeKey(key, source string) string {
	if key != "" {
		return key
	}
	if strings.TrimSpace(source) != "" {
		return s.eng.Key(source)
	}
	return ""
}

// forward proxies an interactive request, which addresses key or inline
// source, to the content key's ring owner when this replica is clustered
// and the owner is a healthy remote peer. A true return means the
// response was written (whatever the owner answered); false means the
// caller serves the request locally — forwarding is an optimization for
// cache locality, never a dependency. A lone daemon returns before
// hashing the source for a route it has no use for.
func (s *server) forward(w http.ResponseWriter, r *http.Request, key, source string, body []byte) bool {
	if s.node == nil {
		return false
	}
	if key = s.routeKey(key, source); key == "" {
		return false
	}
	owner, ok := s.node.Forwarder.ShouldForward(r, key)
	if !ok {
		return false
	}
	return s.node.Forwarder.Forward(w, r, owner, body)
}

// handleLivez is pure liveness: the process is up and serving.
func (s *server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is readiness: whether this daemon should receive new
// routed traffic. Draining (shutdown started) and interactive
// saturation (admission shedding latency-sensitive work) both answer
// 503, so a front-end or sibling stops sending while in-flight
// requests finish.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	saturated := s.admission.Saturated()
	detail := map[string]any{
		"status":               "ok",
		"draining":             s.draining.Load(),
		"interactive_inflight": s.admission.InteractiveInflight(),
		"bulk_inflight":        s.admission.BulkInflight(),
		"saturated":            saturated,
	}
	if s.draining.Load() || saturated {
		detail["status"] = "unavailable"
		if s.draining.Load() {
			detail["status"] = "draining"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(detail)
		return
	}
	s.writeJSON(w, detail)
}
