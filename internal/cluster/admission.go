package cluster

import (
	"net/http"

	"mira/internal/obs"
)

// Class is a request's QoS class. Interactive traffic (/query,
// /analyze) is latency-sensitive and small; bulk traffic (/sweep,
// /report) is throughput work that can retry. Control traffic
// (metrics, health, the peer protocol) is never limited or shed — a
// saturated replica must still answer its health checks and its
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

// AdmissionOptions sizes the per-class concurrency gates.
type AdmissionOptions struct {
	// InteractiveSlots bounds concurrently admitted interactive
	// requests (default 256: interactive work is memo-lookup cheap,
	// the bound exists to survive pathological bursts).
	InteractiveSlots int
	// BulkSlots bounds concurrently admitted bulk requests (default
	// 4). Bulk requests are 64k-point sweeps and multi-section
	// reports: a handful saturate the worker pool, and queueing more
	// of them is how a replica OOMs. Excess bulk load is shed with
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

// classGate is one class's slot pool plus its instruments.
type classGate struct {
	slots    chan struct{}
	admitted *obs.Counter
	shed     *obs.Counter
	inflight *obs.Gauge
}

func newAdmission(opts AdmissionOptions, met *metricsSet) *Admission {
	opts = opts.withDefaults()
	return &Admission{
		interactive: &classGate{
			slots:    make(chan struct{}, opts.InteractiveSlots),
			admitted: met.interAdmitted,
			shed:     met.interShed,
			inflight: met.interInflight,
		},
		bulk: &classGate{
			slots:    make(chan struct{}, opts.BulkSlots),
			admitted: met.bulkAdmitted,
			shed:     met.bulkShed,
			inflight: met.bulkInflight,
		},
	}
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
		return func() {
			g.inflight.Dec()
			<-g.slots
		}, true
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
// the readiness signal: a replica shedding interactive traffic should
// stop receiving routed requests until it drains.
func (a *Admission) Saturated() bool {
	return len(a.interactive.slots) == cap(a.interactive.slots)
}

// InteractiveInflight reports the interactive class's admitted count
// (for /readyz detail).
func (a *Admission) InteractiveInflight() int { return len(a.interactive.slots) }

// BulkInflight reports the bulk class's admitted count.
func (a *Admission) BulkInflight() int { return len(a.bulk.slots) }
