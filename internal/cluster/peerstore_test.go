package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mira/internal/engine"
	"mira/internal/obs"
)

var testFuncEntry = engine.FuncEntry{Name: "f", Unit: []byte{9, 8, 7}}

// newTestPeerStore wires a PeerStore whose ring is {self, owner} with
// the given options, returning the store and its health registry.
func newTestPeerStore(t *testing.T, self, owner string, opts PeerStoreOptions) (*PeerStore, *health) {
	t.Helper()
	ring, err := NewRing([]string{self, owner})
	if err != nil {
		t.Fatal(err)
	}
	h := newHealth(opts.BreakerThreshold, opts.BreakerCooldown, nil)
	met := newMetricsSet(obs.NewRegistry())
	s := newPeerStore(self, ring, engine.NewMemoryStore(), h, met, opts)
	t.Cleanup(s.Close)
	return s, h
}

// keyOwnedBy finds a content key the ring assigns to peer.
func keyOwnedBy(t *testing.T, ring *Ring, peer string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("%064x", i)
		if ring.Owner(k) == peer {
			return k
		}
	}
	t.Fatal("no key owned by peer in 100000 probes")
	return ""
}

// TestPeerStoreReadThrough: a key the owner holds is fetched, verified,
// and filled into the local store so the repeat is a local hit.
func TestPeerStoreReadThrough(t *testing.T) {
	var key string
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		w.Write(EncodeFuncEntry(key, &testFuncEntry))
	}))
	defer srv.Close()

	s, _ := newTestPeerStore(t, "http://self.invalid:1", srv.URL, PeerStoreOptions{})
	key = keyOwnedBy(t, s.ring, srv.URL)

	e, ok := s.LoadFunc(key)
	if !ok {
		t.Fatal("peer-held entry not loaded")
	}
	if e.Name != testFuncEntry.Name || string(e.Unit) != string(testFuncEntry.Unit) {
		t.Errorf("entry mismatch: %+v", e)
	}
	if _, ok := s.local.LoadFunc(key); !ok {
		t.Error("peer hit was not filled into the local store")
	}
	if _, ok := s.LoadFunc(key); !ok {
		t.Fatal("repeat load failed")
	}
	if requests != 1 {
		t.Errorf("owner saw %d requests; the repeat should have been a local hit", requests)
	}
}

// TestPeerStoreOwnerDown: a dead owner degrades to a clean miss — the
// engine behind the store compiles locally — and repeated failures open
// the owner's circuit so later requests stop paying the timeout.
func TestPeerStoreOwnerDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	owner := srv.URL
	srv.Close() // the owner is down before the first request

	s, h := newTestPeerStore(t, "http://self.invalid:1", owner, PeerStoreOptions{
		Timeout:          200 * time.Millisecond,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
	})
	key := keyOwnedBy(t, s.ring, owner)

	if _, ok := s.LoadFunc(key); ok {
		t.Fatal("load from a dead owner reported a hit")
	}
	// One LoadFunc is two attempts (Retries defaults to 1), which meets the
	// threshold: the circuit is now open.
	if got := h.breaker(owner).State(); got != "open" {
		t.Errorf("breaker state after dead-owner load = %s, want open", got)
	}
	// With the circuit open the miss is immediate (no dial); the store
	// still answers and local writes still work.
	start := time.Now()
	if _, ok := s.LoadFunc(key); ok {
		t.Fatal("open-circuit load reported a hit")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("open-circuit miss took %s; want immediate refusal", d)
	}
	if err := s.StoreFunc(key, &testFuncEntry); err != nil {
		t.Fatalf("local store failed while the owner is down: %v", err)
	}
	if _, ok := s.local.LoadFunc(key); !ok {
		t.Error("entry missing from the local store")
	}
}

// TestPeerStoreSlowPeer: a peer slower than the timeout is a dead peer;
// the load misses within the bound and the breaker absorbs the signal.
func TestPeerStoreSlowPeer(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the response far past the client timeout
	}))
	// Unblock the hung handlers before srv.Close waits on them.
	defer srv.Close()
	defer close(release)

	s, h := newTestPeerStore(t, "http://self.invalid:1", srv.URL, PeerStoreOptions{
		Timeout:          50 * time.Millisecond,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
	})
	key := keyOwnedBy(t, s.ring, srv.URL)

	start := time.Now()
	if _, ok := s.LoadFunc(key); ok {
		t.Fatal("load from a hung peer reported a hit")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("slow-peer miss took %s; the timeout should bound it", d)
	}
	if got := h.breaker(srv.URL).State(); got != "open" {
		t.Errorf("breaker state after timeouts = %s, want open", got)
	}
}

// TestPeerStoreCorruptPayload: a payload failing checksum, framing, or
// key verification is a clean miss for that entry — nothing lands in
// the local store, so a byte-flipping peer cannot poison its siblings.
func TestPeerStoreCorruptPayload(t *testing.T) {
	var key string
	mode := "flip"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := EncodeFuncEntry(key, &testFuncEntry)
		switch mode {
		case "flip":
			raw[len(raw)/2] ^= 0x01
		case "truncate":
			raw = raw[:len(raw)-8]
		case "wrongkey":
			raw = EncodeFuncEntry("beef", &testFuncEntry)
		}
		w.Write(raw)
	}))
	defer srv.Close()

	s, h := newTestPeerStore(t, "http://self.invalid:1", srv.URL, PeerStoreOptions{})
	key = keyOwnedBy(t, s.ring, srv.URL)

	for _, m := range []string{"flip", "truncate", "wrongkey"} {
		mode = m
		if _, ok := s.LoadFunc(key); ok {
			t.Errorf("%s: corrupt payload reported as a hit", m)
		}
		if _, ok := s.local.LoadFunc(key); ok {
			t.Errorf("%s: corrupt payload poisoned the local store", m)
		}
	}
	// Corruption is an application defect, not a transport failure; it
	// must not open the circuit (the HTTP round trip succeeded).
	if got := h.breaker(srv.URL).State(); got != "closed" {
		t.Errorf("breaker state after corrupt payloads = %s, want closed", got)
	}
}

// TestPeerStoreHealthyMiss: a 404 from a healthy owner is a plain miss
// and never counts against the breaker.
func TestPeerStoreHealthyMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no entry", http.StatusNotFound)
	}))
	defer srv.Close()

	s, h := newTestPeerStore(t, "http://self.invalid:1", srv.URL, PeerStoreOptions{BreakerThreshold: 1})
	key := keyOwnedBy(t, s.ring, srv.URL)
	for i := 0; i < 5; i++ {
		if _, ok := s.LoadFunc(key); ok {
			t.Fatal("404 reported as a hit")
		}
	}
	if got := h.breaker(srv.URL).State(); got != "closed" {
		t.Errorf("breaker state after healthy misses = %s, want closed", got)
	}
}

// TestPeerStoreWriteBehind: a write on a non-owner replica lands
// locally and ships a verified frame to the owner in the background.
func TestPeerStoreWriteBehind(t *testing.T) {
	var mu sync.Mutex
	received := map[string][]byte{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		body := make([]byte, 0, 1024)
		buf := make([]byte, 1024)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		mu.Lock()
		received[r.URL.Path] = body
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	s, _ := newTestPeerStore(t, "http://self.invalid:1", srv.URL, PeerStoreOptions{})
	key := keyOwnedBy(t, s.ring, srv.URL)

	if err := s.StoreFunc(key, &testFuncEntry); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.local.LoadFunc(key); !ok {
		t.Error("write did not land in the local store")
	}
	s.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 {
		t.Errorf("owner received %d shipments, want 1: %v", len(received), received)
	}
	fnRaw := received["/cluster/func/"+key]
	if fnRaw == nil {
		t.Fatal("owner never received the function replication")
	}
	if _, err := DecodeFuncEntry(key, fnRaw); err != nil {
		t.Errorf("replicated function frame does not verify: %v", err)
	}
}

// TestPeerStoreSelfOwnedKey: a key this replica owns never generates
// peer traffic — a miss is a miss, and writes do not replicate to self.
func TestPeerStoreSelfOwnedKey(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("self-owned key generated peer traffic")
	}))
	defer srv.Close()

	self := "http://self.invalid:1"
	s, _ := newTestPeerStore(t, self, srv.URL, PeerStoreOptions{})
	key := keyOwnedBy(t, s.ring, self)

	if _, ok := s.LoadFunc(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.StoreFunc(key, &testFuncEntry); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if _, ok := s.LoadFunc(key); !ok {
		t.Fatal("self-owned entry not served locally")
	}
}
