// Benchmarks for the cluster load path (PR 8): the wire framing every
// peer transfer pays, the ring lookup every routed request pays, and
// the read-through fetch a warm sibling serves. These ride in
// bench-baseline (BENCH_7.json) so the cluster tier's costs are part of
// the recorded performance trajectory. Peer transfers carry
// per-function entries.
package mira_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"mira/internal/cluster"
	"mira/internal/engine"
	"mira/internal/obs"
)

// benchClusterEntry is a per-function cache entry with a 64 KiB unit,
// the payload size the cluster benchmarks have always used.
func benchClusterEntry() *engine.FuncEntry {
	unit := make([]byte, 64<<10)
	for i := range unit {
		unit[i] = byte(i * 31)
	}
	return &engine.FuncEntry{Name: "stream_triad", Unit: unit}
}

// BenchmarkCluster_WireRoundTrip: one encode + verified decode of a
// 64 KiB per-function frame — the CPU cost of every peer cache transfer
// (checksum both ways).
func BenchmarkCluster_WireRoundTrip(b *testing.B) {
	e := benchClusterEntry()
	key := fmt.Sprintf("%064x", 42)
	raw := cluster.EncodeFuncEntry(key, e)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw = cluster.EncodeFuncEntry(key, e)
		if _, err := cluster.DecodeFuncEntry(key, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster_RingOwner: the consistent-hash lookup on every
// routed request, across a 3-peer ring at the default vnode count.
func BenchmarkCluster_RingOwner(b *testing.B) {
	ring, err := cluster.NewRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(keys[i%len(keys)]) == "" {
			b.Fatal("ownerless key")
		}
	}
}

// BenchmarkCluster_PeerReadThrough: a full peer fetch — HTTP round
// trip, checksum verification, local fill — measured against a loopback
// owner. Local fill is discarded each iteration so every op takes the
// remote path, which is the cost a cold replica pays per shared-tier
// hit.
func BenchmarkCluster_PeerReadThrough(b *testing.B) {
	e := benchClusterEntry()
	var key string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(cluster.EncodeFuncEntry(key, e))
	}))
	defer srv.Close()

	self := "http://self.invalid:1"
	node, err := cluster.NewNode(cluster.NodeOptions{
		Self:  self,
		Peers: []string{self, srv.URL},
		Local: engine.NewMemoryStore(),
		Obs:   obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	for i := 0; ; i++ {
		key = fmt.Sprintf("%064x", i)
		if node.Ring.Owner(key) == srv.URL {
			break
		}
	}
	b.SetBytes(int64(len(cluster.EncodeFuncEntry(key, e))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		local := engine.NewMemoryStore() // discard the fill: stay on the remote path
		n2, err := cluster.NewNode(cluster.NodeOptions{Self: self, Peers: []string{self, srv.URL}, Local: local, Obs: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		got, ok := n2.Store.LoadFunc(key)
		if !ok || !bytes.Equal(got.Unit, e.Unit) {
			b.Fatal("peer read-through failed")
		}
		b.StopTimer()
		n2.Close()
		b.StartTimer()
	}
}
