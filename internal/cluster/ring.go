// Package cluster turns N mira-serve replicas into one logical
// analysis service. It provides the pieces the daemon composes into
// cluster mode:
//
//   - Ring, a consistent-hash ring over content keys with virtual
//     nodes, so each key has exactly one owner replica and membership
//     changes move only the departed peer's share of the key space,
//   - PeerStore, an HTTP/peer-backed engine.CacheStore of per-function
//     entries with read-through to the key's owner, write-behind
//     replication, and per-peer circuit breakers, so a dead peer
//     degrades to a local compile instead of failing the request,
//   - Handler, the peer-protocol endpoints (GET /cluster/ring for
//     introspection, GET/PUT per-function entries) a replica serves to
//     its siblings,
//   - Forwarder, which proxies an interactive request to the content
//     key's owner so the owner's caches stay hot, falling back to
//     local service when the owner is unreachable.
//
// Everything reports into an obs.Registry under the mira_cluster_*
// series. Admission control and rate limiting are not here: every
// daemon, clustered or not, has them in mira-serve's front door.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is every ring's per-peer virtual-node count:
// enough points that a 3-replica ring splits the key space within a few
// percent of evenly. It is a constant, not an option, because replicas
// that disagree on it disagree on who owns a key.
const DefaultVirtualNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring over content keys. Each
// peer owns the arc before each of its virtual nodes; a key belongs to
// the first point clockwise from the key's hash. Because points are
// per-peer, removing a peer reassigns only that peer's arcs — every
// key owned by a surviving peer keeps its owner, which is what keeps a
// shared cache tier warm across membership changes.
type Ring struct {
	peers  []string
	points []point
}

// NewRing builds a ring over the given peer addresses. Peers must be
// non-empty and unique.
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i, p := range sorted {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer address")
		}
		if i > 0 && sorted[i-1] == p {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
	}
	r := &Ring{
		peers:  sorted,
		points: make([]point, 0, len(sorted)*DefaultVirtualNodes),
	}
	for _, p := range sorted {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s\x00%d", p, v)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by peer name so the
		// ring stays deterministic across processes.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// ringHash is the ring's point/key hash: 64-bit FNV-1a finished with a
// splitmix64 avalanche round. FNV alone distributes poorly over the
// near-identical short strings the ring feeds it (peer URLs differing
// in one digit, sequential vnode counters), which skews arc ownership
// by tens of percent on a 3-replica loopback ring; the finalizer
// spreads those correlated inputs evenly. Deterministic across
// processes, which is all the replicas need to agree on ownership.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the peer that owns key: the first virtual node at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// Peers returns the ring's members, sorted.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}

// Shares samples the key space to estimate each peer's ownership
// fraction; every peer holds DefaultVirtualNodes arcs. n is the sample
// size (<= 0 means 4096). Used by GET /cluster/ring for introspection.
func (r *Ring) Shares(n int) map[string]float64 {
	if n <= 0 {
		n = 4096
	}
	counts := make(map[string]int, len(r.peers))
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("sample-%d", i))]++
	}
	out := make(map[string]float64, len(r.peers))
	for _, p := range r.peers {
		out[p] = float64(counts[p]) / float64(n)
	}
	return out
}
