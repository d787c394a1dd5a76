package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/obs"
)

const twinSrc = `
double scale(double *x, int n, double a) {
	int i;
	for (i = 0; i < n; i++) {
		x[i] = a * x[i];
	}
	return x[0];
}`

// peerDepot is a loopback "owner" replica: it stores every PUT payload
// under its URL path and serves it back on GET, i.e. the peer protocol
// with none of the peer.
type peerDepot struct {
	mu      sync.Mutex
	objects map[string][]byte
}

func (p *peerDepot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch r.Method {
	case http.MethodPut:
		body, _ := io.ReadAll(r.Body)
		p.objects[r.URL.Path] = body
	case http.MethodGet:
		raw, ok := p.objects[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(raw)
	}
}

// funcKeys returns the per-function entry keys the depot holds.
func (p *peerDepot) funcKeys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for path := range p.objects {
		if strings.HasPrefix(path, "/cluster/func/") {
			out = append(out, strings.TrimPrefix(path, "/cluster/func/"))
		}
	}
	return out
}

// ownerOnlyStore builds a PeerStore whose ring holds ONLY the owner, so
// every key is peer-owned: every miss goes through the wire and every
// write replicates — the maximally adversarial configuration for
// cross-arch poisoning.
func ownerOnlyStore(t *testing.T, owner string) *PeerStore {
	t.Helper()
	ring, err := NewRing([]string{owner})
	if err != nil {
		t.Fatal(err)
	}
	h := newHealth(0, 0, nil)
	met := newMetricsSet(obs.NewRegistry())
	s := newPeerStore("http://self.invalid:1", ring, engine.NewMemoryStore(), h, met, PeerStoreOptions{})
	t.Cleanup(s.Close)
	return s
}

// TestPeerTierArchIsolation is the no-poisoning regression test through
// the cluster tier: two engines whose architectures differ in exactly
// one parameter (bandwidth) share a peer cache, and every layer of it —
// the wire, the owner's storage, a cold replica warming from the peer —
// must keep their artifacts apart and their rooflines distinct.
func TestPeerTierArchIsolation(t *testing.T) {
	depot := &peerDepot{objects: map[string][]byte{}}
	srv := httptest.NewServer(depot)
	defer srv.Close()

	d1 := arch.Arya()
	d2 := arch.Arya()
	d2.MemBandwidthGBs *= 2

	env := expr.EnvFromInts(map[string]int64{"n": 1000})
	ridge := func(e *engine.Engine) float64 {
		t.Helper()
		a, err := e.AnalyzeCtx(context.Background(), "scale.c", twinSrc)
		if err != nil {
			t.Fatal(err)
		}
		r := a.RunOne(context.Background(), engine.Query{Fn: "scale", Env: env, Kind: engine.KindRoofline})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r.Roofline.RidgeAI
	}

	// Warm phase: each twin analyzes through its own replica; the
	// write-behind tier ships both artifacts to the shared owner.
	s1 := ownerOnlyStore(t, srv.URL)
	e1 := engine.New(engine.Options{Core: core.Options{Arch: d1}, Store: s1})
	ridge1 := ridge(e1)
	s1.Flush()

	s2 := ownerOnlyStore(t, srv.URL)
	e2 := engine.New(engine.Options{Core: core.Options{Arch: d2}, Store: s2})
	ridge2 := ridge(e2)
	s2.Flush()

	if ridge1 == ridge2 {
		t.Fatal("arch twins computed the same ridge point; the test cannot detect poisoning")
	}
	keys := depot.funcKeys()
	if len(keys) != 2 || keys[0] == keys[1] {
		t.Fatalf("owner holds %d function entries %v, want 2 distinct (one per arch)", len(keys), keys)
	}

	// Cold phase: fresh replicas with empty local stores warm from the
	// peer. Each must pull its OWN arch's artifact and reproduce its own
	// ridge — a cross-served entry would reproduce the other twin's.
	s3 := ownerOnlyStore(t, srv.URL)
	e3 := engine.New(engine.Options{Core: core.Options{Arch: d1}, Store: s3})
	if got := ridge(e3); got != ridge1 {
		t.Errorf("cold d1 replica ridge %v, want %v", got, ridge1)
	}
	a3, err := e3.AnalyzeCtx(context.Background(), "scale.c", twinSrc)
	if err != nil {
		t.Fatal(err)
	}
	if s3.met.peerHits.Value() == 0 {
		t.Error("cold replica did not read through to the peer")
	}
	if _, ok := s3.Local().LoadFunc(a3.FuncKeys["scale"]); !ok {
		t.Error("cold replica did not warm from the peer (local fill missing)")
	}

	s4 := ownerOnlyStore(t, srv.URL)
	e4 := engine.New(engine.Options{Core: core.Options{Arch: d2}, Store: s4})
	if got := ridge(e4); got != ridge2 {
		t.Errorf("cold d2 replica ridge %v, want %v", got, ridge2)
	}
}
