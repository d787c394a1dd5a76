package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mira/internal/cachestore"
	"mira/internal/engine"
)

// PeerStoreOptions tunes the peer cache tier. The zero value is a
// sane production configuration.
type PeerStoreOptions struct {
	// Timeout bounds one peer round trip (default 2s). A slow peer is
	// a dead peer: the engine behind this store is about to fall back
	// to a local compile measured in milliseconds, so waiting longer
	// than that for a peer buys nothing.
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed peer read
	// (default 1, i.e. two attempts); each retry backs off by Backoff.
	Retries int
	// Backoff is the base delay between read retries (default 25ms).
	Backoff time.Duration
	// ReplicaQueue bounds the write-behind queue (default 256). When
	// the queue is full the new shipment is dropped and counted, not
	// queued: replication is best-effort, and the local store already
	// has the artifact.
	ReplicaQueue int
	// ReplicaWorkers is the number of background replication senders
	// (default 2).
	ReplicaWorkers int
	// BreakerThreshold and BreakerCooldown configure the per-peer
	// circuit breakers (defaults 5 consecutive failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock supplies the store's notion of time — peer latency
	// observations and (through NewNode) the breaker and rate-limiter
	// clocks. nil means time.Now; tests inject a fake to make every
	// time-dependent path deterministic.
	Clock func() time.Time
}

func (o PeerStoreOptions) withDefaults() PeerStoreOptions {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 1
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.ReplicaQueue <= 0 {
		o.ReplicaQueue = 256
	}
	if o.ReplicaWorkers <= 0 {
		o.ReplicaWorkers = 2
	}
	return o
}

// PeerStore implements engine.CacheStore over the cluster: reads go
// local-first, then read-through to the key's ring owner (verified,
// checksummed, and cached locally on success); writes land locally and
// replicate to the owner write-behind. Every peer interaction is
// bounded — per-request timeout, bounded retries with backoff, and a
// per-peer circuit breaker — so the worst a dead peer can do is add one
// timeout before the engine compiles locally.
type PeerStore struct {
	self   string
	ring   *Ring
	local  engine.CacheStore
	client *http.Client
	health *health
	met    *metricsSet
	opts   PeerStoreOptions

	queue   chan replJob
	pending sync.WaitGroup
	closeMu sync.Mutex
	closed  bool //lint:guarded-by closeMu
	done    chan struct{}
	workers sync.WaitGroup
}

// replJob is one write-behind shipment: a framed payload bound for a
// key's owner.
type replJob struct {
	key     string
	owner   string
	payload []byte
}

// Ensure the engine contract is met.
var _ engine.CacheStore = (*PeerStore)(nil)

// newPeerStore wires the store; called by NewNode, which owns the
// shared health registry and metrics set.
func newPeerStore(self string, ring *Ring, local engine.CacheStore, h *health, met *metricsSet, opts PeerStoreOptions) *PeerStore {
	opts = opts.withDefaults()
	s := &PeerStore{
		self:   self,
		ring:   ring,
		local:  local,
		client: &http.Client{Timeout: opts.Timeout},
		health: h,
		met:    met,
		opts:   opts,
		queue:  make(chan replJob, opts.ReplicaQueue),
		done:   make(chan struct{}),
	}
	s.workers.Add(opts.ReplicaWorkers)
	for i := 0; i < opts.ReplicaWorkers; i++ {
		go s.replicateLoop()
	}
	return s
}

// Close stops the write-behind workers after the queued shipments
// drain. Safe to call more than once.
func (s *PeerStore) Close() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.closeMu.Unlock()
	s.workers.Wait()
}

// Flush blocks until every enqueued replication has been attempted
// (sent, failed, or dropped). For tests and orderly shutdown.
func (s *PeerStore) Flush() { s.pending.Wait() }

// Local returns the replica's own store — what the peer-protocol
// handler serves from, so sibling fetches never recurse through the
// peer tier.
func (s *PeerStore) Local() engine.CacheStore { return s.local }

// LoadFunc is the read-through path: the local store first; on a
// miss, fetch from the key's ring owner, verify the checksummed
// payload, and cache it locally so the next request is a local hit.
// Every failure mode — owner down, circuit open, timeout, corrupt
// payload — is a miss: the engine compiles the function locally and the
// replica keeps serving.
func (s *PeerStore) LoadFunc(key string) (*engine.FuncEntry, bool) {
	if e, ok := s.local.LoadFunc(key); ok {
		return e, true
	}
	raw, ok := s.fetch(key)
	if !ok {
		return nil, false
	}
	e, err := DecodeFuncEntry(key, raw)
	if err != nil {
		s.met.peerErrors.Inc()
		return nil, false
	}
	s.met.peerHits.Inc()
	// Local fill: repeats become local hits, and the entry survives
	// the owner's death.
	if err := s.local.StoreFunc(key, e); err != nil {
		s.met.peerErrors.Inc()
	}
	return e, true
}

// StoreFunc lands e locally and replicates it write-behind to the key's
// owner, so the ring's read-through tier converges on the owner
// holding every artifact in its arc.
func (s *PeerStore) StoreFunc(key string, e *engine.FuncEntry) error {
	err := s.local.StoreFunc(key, e)
	s.replicate(key, EncodeFuncEntry(key, e))
	return err
}

// fetch reads one framed payload from the key's owner. A miss (the
// owner simply has no entry) is not a peer failure; transport errors,
// timeouts, and 5xx responses count against the owner's breaker and
// are retried within the configured bounds.
func (s *PeerStore) fetch(key string) ([]byte, bool) {
	if !cachestore.ValidKey(key) {
		return nil, false
	}
	owner := s.ring.Owner(key)
	if owner == s.self {
		// This replica is the owner; its local store was the answer.
		return nil, false
	}
	b := s.health.breaker(owner)
	for attempt := 0; ; attempt++ {
		if !b.Allow() {
			s.met.peerErrors.Inc()
			return nil, false
		}
		raw, status, err := s.roundTrip(owner, key)
		if err == nil && status == http.StatusOK {
			b.Success()
			return raw, true
		}
		if err == nil && status == http.StatusNotFound {
			b.Success() // a healthy peer answered: it just has no entry
			s.met.peerMisses.Inc()
			return nil, false
		}
		b.Failure()
		if attempt >= s.opts.Retries {
			s.met.peerErrors.Inc()
			return nil, false
		}
		time.Sleep(s.opts.Backoff << attempt)
	}
}

// roundTrip performs one GET against owner's peer endpoint.
func (s *PeerStore) roundTrip(owner, key string) ([]byte, int, error) {
	// The engine's CacheStore interface is ctx-free; the client timeout bounds the trip.
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.Timeout)
	defer cancel()
	start := s.opts.Clock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL(owner, key), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	s.met.peerLatency.Observe(s.opts.Clock().Sub(start).Seconds())
	if resp.StatusCode != http.StatusOK {
		// Drain so the connection can be reused; the response is
		// already an error, a failed drain adds nothing.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerPayload+1))
	if err != nil {
		return nil, 0, err
	}
	if len(raw) > maxPeerPayload {
		return nil, 0, fmt.Errorf("cluster: peer payload exceeds %d bytes", maxPeerPayload)
	}
	return raw, http.StatusOK, nil
}

// replicate enqueues a write-behind shipment to the key's owner. The
// local replica's write has already landed; replication is best-effort
// and a full queue drops the shipment with a counter, never blocking
// the analysis path.
func (s *PeerStore) replicate(key string, payload []byte) {
	owner := s.ring.Owner(key)
	if owner == s.self {
		return
	}
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.pending.Add(1)
	select {
	case s.queue <- replJob{key: key, owner: owner, payload: payload}:
	default:
		s.pending.Done()
		s.met.replDrops.Inc()
	}
	s.closeMu.Unlock()
}

// replicateLoop drains the write-behind queue until Close.
func (s *PeerStore) replicateLoop() {
	defer s.workers.Done()
	for {
		select {
		case job := <-s.queue:
			s.ship(job)
			s.pending.Done()
		case <-s.done:
			// Drain what is already queued, then exit.
			for {
				select {
				case job := <-s.queue:
					s.ship(job)
					s.pending.Done()
				default:
					return
				}
			}
		}
	}
}

// ship PUTs one framed payload at the owner, within the same bounded
// retry/timeout/breaker discipline as reads.
func (s *PeerStore) ship(job replJob) {
	b := s.health.breaker(job.owner)
	for attempt := 0; ; attempt++ {
		if !b.Allow() {
			s.met.replErrors.Inc()
			return
		}
		err := s.put(job)
		if err == nil {
			b.Success()
			s.met.replications.Inc()
			return
		}
		b.Failure()
		if attempt >= s.opts.Retries {
			s.met.replErrors.Inc()
			return
		}
		time.Sleep(s.opts.Backoff << attempt)
	}
}

func (s *PeerStore) put(job replJob) error {
	// Write-behind replication runs on background workers with no request lifecycle.
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		peerURL(job.owner, job.key), bytes.NewReader(job.payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Best-effort drain for connection reuse; the status code below is
	// the shipment's outcome.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("cluster: replicate %s to %s: HTTP %d", job.key, job.owner, resp.StatusCode)
	}
	return nil
}

// peerURL builds the peer-protocol URL for an entry.
func peerURL(owner, key string) string {
	return fmt.Sprintf("%s/cluster/func/%s", owner, key)
}
