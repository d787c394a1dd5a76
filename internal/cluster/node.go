package cluster

import (
	"fmt"
	"strings"
	"time"

	"mira/internal/engine"
	"mira/internal/obs"
)

// NodeOptions assembles one replica's cluster membership.
type NodeOptions struct {
	// Self is this replica's advertised base URL; it must appear in
	// Peers.
	Self string
	// Peers is the full static membership, this replica included.
	// Entries are base URLs ("http://10.0.0.1:7319"); NormalizePeers
	// turns bare host:port forms into URLs.
	Peers []string
	// Local is the replica's own store: the on-disk cachestore, or an
	// engine.MemoryStore for diskless replicas. Required.
	Local engine.CacheStore
	// Obs receives the cluster metrics (mira_cluster_*). Nil means a
	// private registry. Use the same registry as the engine so one /metrics
	// scrape shows the whole replica.
	Obs *obs.Registry

	// PeerStore tunes the cache tier (zero value = defaults).
	PeerStore PeerStoreOptions
	// ForwardTimeout bounds one proxied request (default 30s).
	ForwardTimeout time.Duration
}

// Node is one replica's cluster runtime: the ring it believes in, the
// peer-backed store its engine reads through, and the forwarder.
// Compose it into a daemon with Handler (the peer protocol) and the
// Forwarder field.
type Node struct {
	Self      string
	Ring      *Ring
	Store     *PeerStore
	Forwarder *Forwarder

	health *health
	met    *metricsSet
}

// NewNode validates the membership and wires the replica's cluster
// runtime.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.Local == nil {
		return nil, fmt.Errorf("cluster: node needs a local store")
	}
	ring, err := NewRing(opts.Peers)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.Peers() {
		if p == opts.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not among the peers %v", opts.Self, ring.Peers())
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := newMetricsSet(reg)
	po := opts.PeerStore.withDefaults()
	// One clock for the whole node: the peer store's latency
	// observations and the breakers both read po.Clock, so a test
	// injecting a fake clock controls every time-dependent decision
	// the replica makes.
	h := newHealth(po.BreakerThreshold, po.BreakerCooldown, po.Clock)
	n := &Node{
		Self:      opts.Self,
		Ring:      ring,
		health:    h,
		met:       met,
		Store:     newPeerStore(opts.Self, ring, opts.Local, h, met, po),
		Forwarder: newForwarder(opts.Self, ring, h, met, opts.ForwardTimeout),
	}
	reg.GaugeFunc("mira_cluster_breakers_open", "peer circuits currently open or probing", func() float64 {
		return float64(h.openCount())
	})
	return n, nil
}

// Close stops the node's background work (write-behind replication).
func (n *Node) Close() { n.Store.Close() }

// NormalizePeers canonicalizes a -peers flag value: a comma-separated
// list of base URLs or bare host:port entries (which get an http://
// scheme), trimmed, with trailing slashes removed.
func NormalizePeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		out = append(out, strings.TrimRight(p, "/"))
	}
	return out
}
