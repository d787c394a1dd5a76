package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mira/internal/engine"
	"mira/internal/obs"
)

// fakeClock is a deterministic clock: every reading advances it by a
// fixed step, so an elapsed-time measurement spanning two readings is
// exactly one step.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestPeerStoreLatencyUsesInjectedClock: the peer-latency summary must
// read the injected clock, not the wall clock — with a fake clock that
// steps 250ms per reading, one round trip observes exactly 0.25s.
// Regression test: roundTrip used to call time.Now directly, which made
// the latency observations untestable and exempt from the one-clock-
// per-node contract.
func TestPeerStoreLatencyUsesInjectedClock(t *testing.T) {
	var key string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(EncodeFuncEntry(key, &testFuncEntry))
	}))
	defer srv.Close()

	clock := &fakeClock{t: time.Unix(1700000000, 0), step: 250 * time.Millisecond}
	ring, err := NewRing([]string{"http://self.invalid:1", srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	met := newMetricsSet(obs.NewRegistry())
	h := newHealth(0, 0, clock.Now)
	s := newPeerStore("http://self.invalid:1", ring, engine.NewMemoryStore(), h, met, PeerStoreOptions{Clock: clock.Now})
	t.Cleanup(s.Close)
	key = keyOwnedBy(t, s.ring, srv.URL)

	if _, ok := s.LoadFunc(key); !ok {
		t.Fatal("peer-held entry not loaded")
	}
	count, sum := met.peerLatency.Snapshot()
	if count != 1 {
		t.Fatalf("peerLatency count = %d, want 1", count)
	}
	if sum != 0.25 {
		t.Errorf("peerLatency sum = %v, want exactly 0.25 (the fake clock's step)", sum)
	}
}

// failingResponseWriter refuses every body write, simulating a client
// that disconnected after the forwarded status line went out.
type failingResponseWriter struct {
	header http.Header
	status int
}

func (f *failingResponseWriter) Header() http.Header       { return f.header }
func (f *failingResponseWriter) WriteHeader(code int)      { f.status = code }
func (f *failingResponseWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestForwardMidResponseFailureCounted: a forward whose response copy
// fails mid-stream must count into mira_cluster_forward_errors.
// Regression test: the io.Copy error used to be silently dropped, so a
// truncated proxied response was indistinguishable from a healthy
// forward in the metrics.
func TestForwardMidResponseFailureCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	ring, err := NewRing([]string{"http://self.invalid:1", srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	met := newMetricsSet(obs.NewRegistry())
	f := newForwarder("http://self.invalid:1", ring, newHealth(0, 0, nil), met, 0)

	req := httptest.NewRequest(http.MethodGet, "/query?fn=f", nil)
	w := &failingResponseWriter{header: http.Header{}}
	if !f.Forward(w, req, srv.URL, nil) {
		t.Fatal("Forward reported failure; the round trip succeeded and the response was started")
	}
	if w.status != http.StatusOK {
		t.Errorf("forwarded status = %d, want %d", w.status, http.StatusOK)
	}
	if got := met.forwardErrs.Value(); got != 1 {
		t.Errorf("forwardErrs = %d, want 1 (mid-response copy failure must be counted)", got)
	}
	if got := met.forwards.Value(); got != 1 {
		t.Errorf("forwards = %d, want 1", got)
	}
}
