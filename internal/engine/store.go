package engine

import "sync"

// FuncEntry is one persisted per-function artifact: a compiled unit (an
// object-file fragment with unresolved, name-based call sites) in its
// portable encoding, stored under the function-content key computed by
// core.FuncKeys. The function's qualified name rides along for
// diagnostics; the key alone is the identity.
type FuncEntry struct {
	Name string
	Unit []byte
}

// CacheStore persists per-function object fragments keyed by
// function-content hash, so an edit to one function re-persists one
// small entry, and unchanged functions restore across processes and
// across *different* source files sharing code. Implementations must be
// safe for concurrent use and must treat unreadable or corrupt entries
// as misses (LoadFunc ok=false), never as errors — a damaged entry
// recompiles that one function and never affects sibling entries.
// StoreFunc errors are reported so callers can count them, but the
// engine treats a failed store as advisory: the analysis it just built
// is still served.
type CacheStore interface {
	LoadFunc(key string) (*FuncEntry, bool)
	StoreFunc(key string, e *FuncEntry) error
}

// MemoryStore is the in-process CacheStore: a mutex-guarded map. It
// buys nothing over the engine's own function memo for a single engine,
// but gives tests and multi-engine setups a shared store with zero I/O.
type MemoryStore struct {
	mu    sync.Mutex
	funcs map[string]*FuncEntry
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{funcs: map[string]*FuncEntry{}}
}

// LoadFunc returns the per-function entry stored under key.
func (s *MemoryStore) LoadFunc(key string) (*FuncEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.funcs[key]
	return e, ok
}

// StoreFunc saves e under key.
func (s *MemoryStore) StoreFunc(key string, e *FuncEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcs[key] = e
	return nil
}

// FuncLen reports the number of stored per-function entries.
func (s *MemoryStore) FuncLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.funcs)
}
