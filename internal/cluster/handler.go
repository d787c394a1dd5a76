package cluster

import (
	"encoding/json"
	"io"
	"net/http"

	"mira/internal/cachestore"
)

// ringInfo is the GET /cluster/ring payload: the membership, this
// replica's identity, ownership share estimates, and the live breaker
// states — enough for an operator (or the smoke test) to see the ring
// a replica believes in.
type ringInfo struct {
	Self     string             `json:"self"`
	Peers    []string           `json:"peers"`
	VNodes   int                `json:"vnodes"`
	Shares   map[string]float64 `json:"shares"`
	Breakers map[string]string  `json:"breakers,omitempty"`
}

// Handler serves the peer protocol for one replica:
//
//	GET /cluster/ring        ring introspection (JSON)
//	GET /cluster/func/{key}  framed per-function entry from the local store
//	PUT /cluster/func/{key}  write-behind replication receiver
//
// GETs serve from the replica's *local* store only — never through
// the peer tier — so sibling fetches cannot recurse. PUT payloads are
// verified (magic, framing, checksum, embedded key) before they touch
// the store: a corrupt replication is rejected with 400 and poisons
// nothing.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/ring", n.handleRing)
	mux.HandleFunc("GET /cluster/func/{key}", n.handleGetFunc)
	mux.HandleFunc("PUT /cluster/func/{key}", n.handlePutFunc)
	return mux
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Best-effort: an Encode failure means the peer hung up mid-read.
	_ = json.NewEncoder(w).Encode(ringInfo{
		Self:     n.Self,
		Peers:    n.Ring.Peers(),
		VNodes:   DefaultVirtualNodes,
		Shares:   n.Ring.Shares(0),
		Breakers: n.health.states(),
	})
}

func (n *Node) handleGetFunc(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cachestore.ValidKey(key) {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	e, ok := n.Store.Local().LoadFunc(key)
	if !ok {
		http.Error(w, "no entry", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Best-effort: a short write means the fetching peer went away; it
	// will fail checksum verification and treat the read as a miss.
	_, _ = w.Write(EncodeFuncEntry(key, e))
}

func (n *Node) handlePutFunc(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	raw, ok := n.readPeerBody(w, r, key)
	if !ok {
		return
	}
	e, err := DecodeFuncEntry(key, raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := n.Store.Local().StoreFunc(key, e); err != nil {
		http.Error(w, "store failed", http.StatusInsufficientStorage)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readPeerBody validates the key and reads a bounded PUT body.
func (n *Node) readPeerBody(w http.ResponseWriter, r *http.Request, key string) ([]byte, bool) {
	if !cachestore.ValidKey(key) {
		http.Error(w, "bad key", http.StatusBadRequest)
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxPeerPayload+1))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return nil, false
	}
	if len(raw) > maxPeerPayload {
		http.Error(w, "payload too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return raw, true
}
