package cluster

import (
	"fmt"
	"testing"
	"time"

	"mira/internal/cachestore"
	"mira/internal/engine"
)

// testKeys generates n distinct valid content keys (lowercase hex).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
	}
	return keys
}

func TestRingDistribution(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(9000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / float64(len(keys))
		if share < 0.10 || share > 0.60 {
			t.Errorf("peer %s owns %.1f%% of the key space; want a rough third", p, 100*share)
		}
	}
}

// TestRingMembershipStability: removing one peer moves only that peer's
// keys; every key owned by a survivor keeps its owner. This is the
// property that keeps the shared cache tier warm across a replica
// death.
func TestRingMembershipStability(t *testing.T) {
	full, err := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"http://a:1", "http://c:1"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	keys := testKeys(5000)
	for _, k := range keys {
		before := full.Owner(k)
		after := reduced.Owner(k)
		if before == "http://b:1" {
			continue // the departed peer's arcs must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys owned by surviving peers changed owner on membership change", moved)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"http://a:1", "http://a:1"}); err == nil {
		t.Error("duplicate peer accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty peer address accepted")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Second, clock)

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Failure()
	}
	if b.State() != "open" {
		t.Fatalf("state after threshold failures = %s, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second request while the probe is in flight")
	}
	b.Failure()
	if b.State() != "open" {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != "closed" {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
}

func TestWireEntryRoundTrip(t *testing.T) {
	key := testKeys(1)[0]
	raw := EncodeFuncEntry(key, &testFuncEntry)
	got, err := DecodeFuncEntry(key, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != testFuncEntry.Name || string(got.Unit) != string(testFuncEntry.Unit) {
		t.Errorf("round trip mismatch: %+v", got)
	}

	// Any single defect is an error, never a partial decode.
	if _, err := DecodeFuncEntry("f00d", raw); err == nil {
		t.Error("payload accepted under the wrong key")
	}
	if _, err := DecodeFuncEntry(key, raw[:len(raw)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(peerMagic)+3] ^= 0x40
	if _, err := DecodeFuncEntry(key, flipped); err == nil {
		t.Error("corrupt payload accepted")
	}
	if _, err := DecodeFuncEntry(key, []byte("not a frame at all")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWireFuncEntryRoundTrip(t *testing.T) {
	key := testKeys(2)[1]
	raw := EncodeFuncEntry(key, &testFuncEntry)
	got, err := DecodeFuncEntry(key, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != testFuncEntry.Name || string(got.Unit) != string(testFuncEntry.Unit) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// A store entry is not a peer payload: same frame, other magic.
	store := cachestore.EncodeFrame(fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion),
		[]byte(key), []byte(testFuncEntry.Name), testFuncEntry.Unit)
	if _, err := DecodeFuncEntry(key, store); err == nil {
		t.Error("store-magic frame decoded as a peer payload")
	}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		"deadbeef": true,
		"0123":     true,
		"abc":      false, // too short
		"DEADBEEF": false, // uppercase
		"../etc":   false,
		"":         false,
	} {
		if got := cachestore.ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
}

func TestNormalizePeers(t *testing.T) {
	got := NormalizePeers(" 10.0.0.1:7319, http://10.0.0.2:7319/ ,,https://replica-3 ")
	want := []string{"http://10.0.0.1:7319", "http://10.0.0.2:7319", "https://replica-3"}
	if len(got) != len(want) {
		t.Fatalf("NormalizePeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("peer %d = %q, want %q", i, got[i], want[i])
		}
	}
}
