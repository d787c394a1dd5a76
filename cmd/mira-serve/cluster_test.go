package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"mira/internal/cluster"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/loadgen"
	"mira/internal/obs"
)

// newClusterTestServer wires a single-member clustered server: every
// key is self-owned, so no peer traffic happens, but the daemon honours
// sibling-forwarded requests.
func newClusterTestServer(t *testing.T, rl RateLimiterOptions, peers ...string) *server {
	t.Helper()
	self := "http://self.invalid:1"
	reg := obs.NewRegistry()
	node, err := cluster.NewNode(cluster.NodeOptions{
		Self:  self,
		Peers: append([]string{self}, peers...),
		Local: engine.NewMemoryStore(),
		Obs:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	eng := engine.New(engine.Options{Core: core.Options{}, Store: node.Store, Obs: reg})
	return newServer(eng, reg, testSuites(), node, AdmissionOptions{}, rl)
}

func sweepBody() string {
	return fmt.Sprintf(`{"source":%q,"fn":"kernel","axes":[{"name":"n","values":[1000,10000]}]}`, kernelSrc)
}

func queryBody() string {
	return fmt.Sprintf(`{"source":%q,"queries":[{"fn":"kernel","env":{"n":100000},"kind":"static"}]}`, kernelSrc)
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
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{Core: core.Options{}, Store: node.Store, Obs: reg})
		reps[i] = smokeReplica{
			base: peers[i],
			node: node,
			// Small bulk capacity so the mixed run demonstrably sheds
			// instead of queueing unbounded sweeps.
			srv: &http.Server{Handler: newServer(eng, reg, testSuites(), node,
				AdmissionOptions{InteractiveSlots: 64, BulkSlots: 2}, RateLimiterOptions{})},
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
