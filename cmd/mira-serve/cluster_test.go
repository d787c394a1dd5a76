package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mira/internal/cluster"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/loadgen"
	"mira/internal/obs"
)

// newClusterTestServer wires a single-member clustered server: the
// front door is live (rate limiter, admission) but every key is
// self-owned, so no peer traffic happens.
func newClusterTestServer(t *testing.T, admission cluster.AdmissionOptions, rate cluster.RateLimiterOptions) (*server, *cluster.Node) {
	t.Helper()
	self := "http://self.invalid:1"
	reg := obs.NewRegistry()
	node, err := cluster.NewNode(cluster.NodeOptions{
		Self:      self,
		Peers:     []string{self},
		Local:     engine.NewMemoryStore(),
		Obs:       reg,
		Admission: admission,
		RateLimit: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	eng := engine.New(engine.Options{Core: core.Options{}, Store: node.Store, Obs: reg})
	return newServer(eng, reg, testSuites(), node), node
}

func sweepBody() string {
	return fmt.Sprintf(`{"source":%q,"fn":"kernel","axes":[{"name":"n","values":[1000,10000]}]}`, kernelSrc)
}

func queryBody() string {
	return fmt.Sprintf(`{"source":%q,"queries":[{"fn":"kernel","env":{"n":100000},"kind":"static"}]}`, kernelSrc)
}

// TestFrontDoorShedsBulk: with the only bulk slot held, /sweep answers
// 503 + Retry-After while /query still serves; releasing the slot
// re-admits bulk work.
func TestFrontDoorShedsBulk(t *testing.T) {
	s, node := newClusterTestServer(t, cluster.AdmissionOptions{InteractiveSlots: 4, BulkSlots: 1}, cluster.RateLimiterOptions{})

	release, ok := node.Admission.Admit(cluster.ClassBulk)
	if !ok {
		t.Fatal("could not hold the bulk slot")
	}
	w := postJSON(t, s, "/sweep", json.RawMessage(sweepBody()))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("sweep with bulk saturated: %d, want 503 (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response is missing Retry-After")
	}
	// Interactive work is unaffected by bulk saturation.
	if w := postJSON(t, s, "/query", json.RawMessage(queryBody())); w.Code != http.StatusOK {
		t.Fatalf("query while bulk saturated: %d (%s)", w.Code, w.Body.String())
	}
	release()
	if w := postJSON(t, s, "/sweep", json.RawMessage(sweepBody())); w.Code != http.StatusOK {
		t.Fatalf("sweep after release: %d (%s)", w.Code, w.Body.String())
	}
}

// TestFrontDoorRateLimits: a client past its bucket answers 429; a
// sibling-forwarded request skips the limiter; control paths are never
// limited.
func TestFrontDoorRateLimits(t *testing.T) {
	s, _ := newClusterTestServer(t, cluster.AdmissionOptions{}, cluster.RateLimiterOptions{Rate: 1, Burst: 1})

	if w := postJSON(t, s, "/query", json.RawMessage(queryBody())); w.Code != http.StatusOK {
		t.Fatalf("first query: %d (%s)", w.Code, w.Body.String())
	}
	w := postJSON(t, s, "/query", json.RawMessage(queryBody()))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second query: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}

	// A forwarded request already paid at the origin replica.
	req := httptest.NewRequest("POST", "/query", strings.NewReader(queryBody()))
	req.Header.Set(cluster.ForwardedHeader, "http://origin.invalid:1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded query: %d, want 200 (%s)", rec.Code, rec.Body.String())
	}

	// Health checks pass regardless of the client's bucket.
	if w := get(s, "/livez"); w.Code != http.StatusOK {
		t.Fatalf("livez while rate-limited: %d", w.Code)
	}
}

// TestReadyzDrainingAndSaturation: /livez is pure liveness; /readyz
// flips to 503 under drain and under interactive saturation.
func TestReadyzDrainingAndSaturation(t *testing.T) {
	s, node := newClusterTestServer(t, cluster.AdmissionOptions{InteractiveSlots: 1}, cluster.RateLimiterOptions{})

	if w := get(s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("idle readyz: %d (%s)", w.Code, w.Body.String())
	}

	release, ok := node.Admission.Admit(cluster.ClassInteractive)
	if !ok {
		t.Fatal("could not hold the interactive slot")
	}
	if w := get(s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: %d, want 503", w.Code)
	}
	release()
	if w := get(s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz after release: %d", w.Code)
	}

	s.draining.Store(true)
	w := get(s, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", w.Code)
	}
	var detail struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil || detail.Status != "draining" {
		t.Errorf("draining readyz body = %s (err %v)", w.Body.String(), err)
	}
	// Liveness is unaffected: the process is still up, just not taking
	// routed traffic.
	if w := get(s, "/livez"); w.Code != http.StatusOK {
		t.Fatalf("livez while draining: %d", w.Code)
	}
}

// smokeReplica is one in-process cluster member with a real listener.
type smokeReplica struct {
	base string
	node *cluster.Node
	srv  *http.Server
}

// startSmokeCluster boots n replicas on loopback listeners that all
// believe in the same ring.
func startSmokeCluster(t *testing.T, n int) []smokeReplica {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	reps := make([]smokeReplica, n)
	for i := range reps {
		reg := obs.NewRegistry()
		node, err := cluster.NewNode(cluster.NodeOptions{
			Self:  peers[i],
			Peers: peers,
			Local: engine.NewMemoryStore(),
			Obs:   reg,
			// Small bulk capacity so the mixed run demonstrably sheds
			// instead of queueing unbounded sweeps.
			Admission: cluster.AdmissionOptions{InteractiveSlots: 64, BulkSlots: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{Core: core.Options{}, Store: node.Store, Obs: reg})
		reps[i] = smokeReplica{
			base: peers[i],
			node: node,
			srv:  &http.Server{Handler: newServer(eng, reg, testSuites(), node)},
		}
		go reps[i].srv.Serve(lns[i])
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.srv.Close()
			r.node.Close()
		}
	})
	return reps
}

// peerSum sums one cluster counter (mira_cluster_peer_hits_total, ...)
// across the replicas' /metrics expositions.
func peerSum(t *testing.T, reps []smokeReplica, name string) float64 {
	t.Helper()
	var sum float64
	for _, rep := range reps {
		resp, err := http.Get(rep.base + "/metrics")
		if err != nil {
			continue // a killed replica has no exposition
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := obs.Parse(string(raw))
		if err != nil {
			t.Fatalf("parse %s/metrics: %v", rep.base, err)
		}
		sum += exp.Value(name)
	}
	return sum
}

// logPeerTier reports the peer tier's traffic so far.
func logPeerTier(t *testing.T, reps []smokeReplica, when string) {
	t.Helper()
	t.Logf("peer tier %s: %v hits, %v misses, %v errors, %v replications", when,
		peerSum(t, reps, "mira_cluster_peer_hits_total"),
		peerSum(t, reps, "mira_cluster_peer_misses_total"),
		peerSum(t, reps, "mira_cluster_peer_errors_total"),
		peerSum(t, reps, "mira_cluster_replications_total"))
}

// TestClusterSmoke is the end-to-end cluster exercise behind `make
// cluster-smoke`: three loopback replicas sharing a cache tier serve a
// mixed load with zero interactive failures and a warm peer tier, and
// keep serving cleanly when one replica dies.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke is not a -short test")
	}
	reps := startSmokeCluster(t, 3)
	targets := []string{reps[0].base, reps[1].base, reps[2].base}

	// Prime the shared tier: sweep the same source on every replica in
	// turn. The first sweep compiles and (via write-behind) lands the
	// artifact on the key's owner; later replicas read it through the
	// peer tier instead of recompiling.
	for _, rep := range reps {
		resp, err := http.Post(rep.base+"/sweep", "application/json", strings.NewReader(sweepBody()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("priming sweep on %s: %d (%s)", rep.base, resp.StatusCode, body)
		}
		rep.node.Store.Flush()
	}
	logPeerTier(t, reps, "after priming")
	if hits := peerSum(t, reps, "mira_cluster_peer_hits_total"); hits < 1 {
		t.Errorf("peer cache hits after priming = %v, want at least 1", hits)
	}

	ops := []loadgen.Op{
		{Name: "query", Class: "interactive", Weight: 9, Method: http.MethodPost, Path: "/query", Body: []byte(queryBody())},
		{Name: "sweep", Class: "bulk", Weight: 1, Method: http.MethodPost, Path: "/sweep", Body: []byte(sweepBody())},
	}

	// Phase 1: mixed load across all three replicas. Interactive work
	// must be perfectly clean — sheds and failures are only acceptable
	// on the bulk class.
	res, err := loadgen.Run(context.Background(), loadgen.Spec{
		Targets:     targets,
		Ops:         ops,
		Concurrency: 8,
		Duration:    700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := res.Class("interactive")
	if inter == nil || inter.OK == 0 {
		t.Fatalf("no successful interactive requests: %+v", res.Classes)
	}
	if inter.Err5xx != 0 || inter.NetErr != 0 || inter.Shed != 0 || inter.RateLimited != 0 {
		t.Errorf("interactive class not clean under mixed load: %+v", inter)
	}

	// Phase 2: kill one replica while load runs against the survivors.
	// Their forwards and peer reads to the dead member must degrade to
	// local service, never to client-visible failures.
	killed := time.AfterFunc(150*time.Millisecond, func() {
		reps[2].srv.Close()
	})
	defer killed.Stop()
	res, err = loadgen.Run(context.Background(), loadgen.Spec{
		Targets:     targets[:2],
		Ops:         ops[:1], // interactive only: the cleanliness claim
		Concurrency: 8,
		Duration:    700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter = res.Class("interactive")
	if inter == nil || inter.OK == 0 {
		t.Fatalf("no successful interactive requests after replica death: %+v", res.Classes)
	}
	if inter.Err5xx != 0 || inter.NetErr != 0 {
		t.Errorf("interactive failures after replica death: %+v", inter)
	}
	logPeerTier(t, reps, "at the end")
}

// TestAdmissionFlagsNeedClusterMode pins that a daemon without -peers
// refuses each admission flag at startup instead of ignoring it, and
// that the error names the flag and cluster mode.
func TestAdmissionFlagsNeedClusterMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a run that got past the check would return at once
	for _, c := range []struct {
		flag string
		cfg  serveConfig
	}{
		{"-rate", serveConfig{rate: 5}},
		{"-burst", serveConfig{burst: 10}},
		{"-interactive-slots", serveConfig{interactiveSlots: 8}},
		{"-bulk-slots", serveConfig{bulkSlots: 2}},
	} {
		c.cfg.addr = "127.0.0.1:0"
		err := run(ctx, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.flag+" takes effect only in cluster mode") {
			t.Errorf("run with %s and no -peers: err = %v, want a cluster-mode error naming the flag", c.flag, err)
		}
	}
	if err := (serveConfig{peers: "http://a:1", rate: 5, bulkSlots: 2}).checkAdmission(); err != nil {
		t.Errorf("admission flags with -peers rejected: %v", err)
	}
}
