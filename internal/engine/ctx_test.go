package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mira/internal/engine"
)

// blockingStore is a CacheStore whose LoadFunc parks until released —
// a deterministic way to hold an analysis in-flight (and its worker slot
// occupied) while a test cancels other callers.
type blockingStore struct {
	entered chan string   // receives the key of each LoadFunc call
	release chan struct{} // closed to let all LoadFuncs proceed (as misses)
}

func newBlockingStore() *blockingStore {
	return &blockingStore{entered: make(chan string, 16), release: make(chan struct{})}
}

func (s *blockingStore) LoadFunc(key string) (*engine.FuncEntry, bool) {
	s.entered <- key
	<-s.release
	return nil, false
}

func (s *blockingStore) StoreFunc(string, *engine.FuncEntry) error { return nil }

// await fails the test if ch doesn't deliver within a generous bound —
// "promptly" for a cancellation that should take microseconds.
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: timed out", what)
		panic("unreachable")
	}
}

// TestSingleflightWaitCancellation: a caller abandoning a duplicate-key
// wait returns ctx.Err() immediately while the owning compile continues
// and still lands in the cache.
func TestSingleflightWaitCancellation(t *testing.T) {
	store := newBlockingStore()
	e := engine.New(engine.Options{Store: store})

	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.AnalyzeCtx(context.Background(), "owner.c", scaleSrc)
		ownerDone <- err
	}()
	await(t, "owner entering build", store.entered)

	// The duplicate-key waiter abandons the wait.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := e.AnalyzeCtx(ctx, "waiter.c", scaleSrc)
		waiterDone <- err
	}()
	cancel()
	if err := await(t, "cancelled waiter", waiterDone); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	// The owner was never disturbed; its result is cached and a retry
	// with a live context is a pure hit.
	close(store.release)
	if err := await(t, "owner completing", ownerDone); err != nil {
		t.Fatal(err)
	}
	a, err := e.AnalyzeCtx(context.Background(), "retry.c", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "retry.c" {
		t.Errorf("retry name = %q", a.Name)
	}
	if hits, _ := e.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1 (the retry)", hits)
	}
}

// TestWorkerQueueCancellation: a caller cancelled while queued for a
// worker slot withdraws, and the cancellation is not cached — the same
// source analyzed again with a live context succeeds.
func TestWorkerQueueCancellation(t *testing.T) {
	store := newBlockingStore()
	e := engine.New(engine.Options{Workers: 1, Store: store})

	ownerDone := make(chan error, 1)
	go func() {
		_, err := e.AnalyzeCtx(context.Background(), "owner.c", scaleSrc)
		ownerDone <- err
	}()
	await(t, "owner occupying the only worker", store.entered)

	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := e.AnalyzeCtx(ctx, "queued.c", axpySrc)
		queuedDone <- err
	}()
	cancel()
	if err := await(t, "cancelled queued caller", queuedDone); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued err = %v, want context.Canceled", err)
	}

	close(store.release)
	if err := await(t, "owner completing", ownerDone); err != nil {
		t.Fatal(err)
	}
	// The withdrawn slot must not have poisoned the cache.
	a, err := e.AnalyzeCtx(context.Background(), "queued.c", axpySrc)
	if err != nil {
		t.Fatalf("cancellation was cached: %v", err)
	}
	if a.Name != "queued.c" {
		t.Errorf("name = %q", a.Name)
	}
}

// TestAnalyzeAllPerItemCancellation: a cancelled batch reports ctx.Err()
// per item instead of aborting or hanging.
func TestAnalyzeAllPerItemCancellation(t *testing.T) {
	e := engine.New(engine.Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := e.AnalyzeAll(ctx, []engine.Job{
		{Name: "a.c", Source: scaleSrc},
		{Name: "b.c", Source: axpySrc},
	})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	// The same batch with a live context recovers fully.
	if err := engine.Errors(e.AnalyzeAll(context.Background(), []engine.Job{
		{Name: "a.c", Source: scaleSrc},
		{Name: "b.c", Source: axpySrc},
	})); err != nil {
		t.Fatal(err)
	}
}

// TestForEachCtxStopsScheduling: cancellation surfaces as the sweep
// error and in-flight work is not abandoned mid-item.
func TestForEachCtxStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := engine.ForEachCtx(ctx, 4, 100, func(i int) error {
		ran++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("cancelled sweep still ran %d items", ran)
	}
}
