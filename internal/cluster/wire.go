package cluster

import (
	"fmt"

	"mira/internal/cachestore"
	"mira/internal/engine"
)

// Peer payloads are cachestore frames (cachestore.EncodeFrame) under
// the peer magic: a version-bearing magic, uvarint-length-prefixed
// sections (key, name, unit), and a trailing sha256 over everything
// before it. A peer is just another process's cache, and the same trust
// rules apply — any defect in the received bytes (truncation by a dying
// peer, a proxy mangling the body, a version skew across a rolling
// deploy) is a clean miss for exactly that entry, never an error and
// never a poisoned store.

// peerMagic is derived from the shared cache-key format version, so a
// replica running a newer format reads an older peer's payloads as
// misses instead of garbage.
var peerMagic = fmt.Sprintf("MIRAPEER%d\n", engine.CacheFormatVersion)

// maxPeerPayload bounds what a replica will read from a peer response
// or replication PUT: compiled artifacts are kilobytes; anything near
// this bound is corrupt or hostile.
const maxPeerPayload = 64 << 20

// EncodeFuncEntry frames a per-function entry for the peer wire.
func EncodeFuncEntry(key string, e *engine.FuncEntry) []byte {
	return cachestore.EncodeFrame(peerMagic, []byte(key), []byte(e.Name), e.Unit)
}

// DecodeFuncEntry verifies and decodes a peer per-function payload. Any
// framing or checksum defect, or a payload whose embedded key is not
// the requested one, is an error the caller treats as a miss.
func DecodeFuncEntry(key string, raw []byte) (*engine.FuncEntry, error) {
	sections, err := cachestore.DecodeFrame(peerMagic, key, raw, 3)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer payload: %w", err)
	}
	return &engine.FuncEntry{
		Name: string(sections[1]),
		Unit: append([]byte(nil), sections[2]...),
	}, nil
}
