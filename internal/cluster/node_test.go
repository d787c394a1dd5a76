package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mira/internal/engine"
)

// newTestNode builds a single-member node serving its peer protocol.
func newTestNode(t *testing.T) *Node {
	t.Helper()
	self := "http://self.invalid:1"
	n, err := NewNode(NodeOptions{Self: self, Peers: []string{self}, Local: engine.NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(NodeOptions{Self: "http://a:1", Peers: []string{"http://b:1"}, Local: engine.NewMemoryStore()}); err == nil {
		t.Error("self outside the peer list accepted")
	}
	if _, err := NewNode(NodeOptions{Self: "http://a:1", Peers: []string{"http://a:1"}}); err == nil {
		t.Error("nil local store accepted")
	}
}

func TestHandlerRing(t *testing.T) {
	n := newTestNode(t)
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Self   string             `json:"self"`
		Peers  []string           `json:"peers"`
		VNodes int                `json:"vnodes"`
		Shares map[string]float64 `json:"shares"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Self != n.Self || len(info.Peers) != 1 || info.VNodes != DefaultVirtualNodes {
		t.Errorf("ring info = %+v", info)
	}
	if info.Shares[n.Self] != 1 {
		t.Errorf("single-member share = %v, want 1", info.Shares[n.Self])
	}
}

// TestHandlerPutRejectsCorrupt: the replication receiver verifies the
// frame before anything touches the store.
func TestHandlerPutRejectsCorrupt(t *testing.T) {
	n := newTestNode(t)
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	key := "deadbeefdeadbeef"
	raw := EncodeFuncEntry(key, &testFuncEntry)
	raw[len(raw)/2] ^= 0x01

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cluster/func/"+key, strings.NewReader(string(raw)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt PUT answered %d, want 400", resp.StatusCode)
	}
	if _, ok := n.Store.Local().LoadFunc(key); ok {
		t.Error("corrupt PUT reached the store")
	}

	// The intact frame is accepted and lands in the local store.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/cluster/func/"+key, strings.NewReader(string(EncodeFuncEntry(key, &testFuncEntry))))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid PUT answered %d, want 204", resp.StatusCode)
	}
	if _, ok := n.Store.Local().LoadFunc(key); !ok {
		t.Error("valid PUT never reached the store")
	}
}

// TestHandlerGetServesLocalOnly: the peer protocol serves framed
// entries from the local store and answers 404 for absences — it never
// recurses through the peer tier.
func TestHandlerGetServesLocalOnly(t *testing.T) {
	n := newTestNode(t)
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	key := "feedfacefeedface"
	resp, err := http.Get(srv.URL + "/cluster/func/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent entry answered %d, want 404", resp.StatusCode)
	}

	n.Store.Local().StoreFunc(key, &testFuncEntry)
	resp, err = http.Get(srv.URL + "/cluster/func/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("present entry answered %d", resp.StatusCode)
	}
	var raw []byte
	buf := make([]byte, 4096)
	for {
		m, err := resp.Body.Read(buf)
		raw = append(raw, buf[:m]...)
		if err != nil {
			break
		}
	}
	if _, err := DecodeFuncEntry(key, raw); err != nil {
		t.Errorf("served frame does not verify: %v", err)
	}

	if resp, err := http.Get(srv.URL + "/cluster/func/UPPER"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("invalid key answered %d, want 400", resp.StatusCode)
		}
	}
}
