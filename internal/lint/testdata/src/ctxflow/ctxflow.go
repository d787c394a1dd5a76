// Package engine is a ctxflow fixture type-checked as
// mira/internal/engine: the PR 3 dropped-context bug class.
package engine

import "context"

// Analyze is the bug shape: minting Background severs the caller's
// cancellation, so a dropped client keeps burning workers.
func Analyze(name string) error {
	ctx := context.Background() // want "context.Background() inside a request path"
	return analyzeCtx(ctx, name)
}

// later reproduces the TODO variant; unexported functions are in scope
// too.
func later(name string) error {
	return analyzeCtx(context.TODO(), name) // want "context.TODO() inside a request path"
}

// AnalyzeCtx threads the caller's context: the sanctioned shape.
func AnalyzeCtx(ctx context.Context, name string) error {
	return analyzeCtx(ctx, name)
}

// Evaluate takes the context in the wrong slot.
func Evaluate(name string, ctx context.Context) error { // want "context.Context must be the first parameter"
	return analyzeCtx(ctx, name)
}

// Deprecated: use AnalyzeCtx so callers can cancel. A deprecation
// notice is no exemption: the ctx-free shim still severs cancellation.
func AnalyzeCompat(name string) error {
	return analyzeCtx(context.Background(), name) // want "context.Background() inside a request path"
}

func analyzeCtx(ctx context.Context, name string) error {
	_ = name
	return ctx.Err()
}
