package cluster

import (
	"mira/internal/obs"
)

// metricsSet groups the cluster layer's observability instruments.
// One set exists per Node (over a private registry when the caller
// supplied none), so the hot paths never nil-check.
//
// Exposed series, in OpenMetrics terms:
//
//	mira_cluster_peer_hits/misses/errors_total  read-through to key owners
//	mira_cluster_peer_seconds                   peer fetch latency (summary)
//	mira_cluster_replications_total             write-behind entries shipped
//	mira_cluster_replication_errors_total       shipments that failed after retries
//	mira_cluster_replication_drops_total        shipments dropped on a full queue
//	mira_cluster_forwards_total                 requests proxied to their key owner
//	mira_cluster_forward_errors_total           proxy round trips that failed
//	mira_cluster_forward_fallbacks_total        forwards degraded to local service
//	mira_cluster_breakers_open                  gauge (scrape-computed)
type metricsSet struct {
	peerHits     *obs.Counter
	peerMisses   *obs.Counter
	peerErrors   *obs.Counter
	peerLatency  *obs.Summary
	replications *obs.Counter
	replErrors   *obs.Counter
	replDrops    *obs.Counter

	forwards     *obs.Counter
	forwardErrs  *obs.Counter
	forwardFalls *obs.Counter
}

func newMetricsSet(r *obs.Registry) *metricsSet {
	return &metricsSet{
		peerHits:     r.Counter("mira_cluster_peer_hits", "cache entries served by a peer replica"),
		peerMisses:   r.Counter("mira_cluster_peer_misses", "peer lookups that missed (owner had no entry)"),
		peerErrors:   r.Counter("mira_cluster_peer_errors", "peer lookups that failed: timeouts, open circuits, rejected payloads"),
		peerLatency:  r.Summary("mira_cluster_peer_seconds", "peer fetch round-trip latency"),
		replications: r.Counter("mira_cluster_replications", "write-behind entries replicated to their key owner"),
		replErrors:   r.Counter("mira_cluster_replication_errors", "replications that failed after retries"),
		replDrops:    r.Counter("mira_cluster_replication_drops", "replications dropped on a full write-behind queue"),

		forwards:     r.Counter("mira_cluster_forwards", "requests proxied to their content key's owner"),
		forwardErrs:  r.Counter("mira_cluster_forward_errors", "forward round trips that failed"),
		forwardFalls: r.Counter("mira_cluster_forward_fallbacks", "forwards degraded to local service (owner unreachable)"),
	}
}
