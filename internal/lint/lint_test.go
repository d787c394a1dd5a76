package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/lint"
	"mira/internal/lint/linttest"
)

// Each fixture reproduces its analyzer's motivating historical bug
// (see the fixture doc comments) alongside negative and suppression
// cases; linttest fails both when an analyzer goes quiet and when it
// over-reports, so these tests fail if an analyzer is disabled.

func TestMultovf(t *testing.T) {
	linttest.Run(t, "multovf", "mira/internal/model", lint.Multovf)
}

func TestDetorder(t *testing.T) {
	linttest.Run(t, "detorder", "mira/internal/report", lint.Detorder)
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, "ctxflow", "mira/internal/engine", lint.Ctxflow)
}

func TestCtxflowMainExempt(t *testing.T) {
	linttest.Run(t, "ctxflow_main", "mira/cmd/mira-serve", lint.Ctxflow)
}

func TestPanicfree(t *testing.T) {
	linttest.Run(t, "panicfree", "mira/internal/engine", lint.Panicfree)
}

func TestNoglobals(t *testing.T) {
	linttest.Run(t, "noglobals", "mira/internal/registry", lint.Noglobals)
}

func TestObsnames(t *testing.T) {
	linttest.Run(t, "obsnames", "mira/internal/daemonobs", lint.Obsnames)
}

func TestTimeinj(t *testing.T) {
	linttest.Run(t, "timeinj", "mira/internal/cluster", lint.Timeinj)
}

func TestLockdisc(t *testing.T) {
	linttest.Run(t, "lockdisc", "mira/internal/engine", lint.Lockdisc)
}

func TestErrdrop(t *testing.T) {
	linttest.Run(t, "errdrop", "mira/internal/cachestore", lint.Errdrop)
}

// TestGoroleak runs the two-package goroleak fixture: the dependency
// package is analyzed first so its LifecycleBound facts are in the
// shared fact store when the engine-impersonating package's go
// statements are judged.
func TestGoroleak(t *testing.T) {
	linttest.RunMulti(t, []linttest.Pkg{
		{Dir: "goroleak_dep", ImportPath: "mira/internal/bgutil"},
		{Dir: "goroleak", ImportPath: "mira/internal/engine"},
	}, lint.Goroleak)
}

// TestCachekey runs the two-package cachekey fixture: the core
// impersonator exports the VersionConst facts (root and derived) that
// the engine impersonator's key builders are judged against.
func TestCachekey(t *testing.T) {
	linttest.RunMulti(t, []linttest.Pkg{
		{Dir: "cachekey_core", ImportPath: "mira/internal/core"},
		{Dir: "cachekey_engine", ImportPath: "mira/internal/engine"},
	}, lint.Cachekey)
}

// TestTimeinjOutOfScope re-type-checks the timeinj fixture outside
// internal/cluster: the wall-clock reads must produce zero findings —
// time injection is the cluster's contract, not a global ban.
func TestTimeinjOutOfScope(t *testing.T) {
	root := linttest.ModuleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "timeinj")
	pkg, err := lint.LoadDir(root, dir, "mira/internal/elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{lint.Timeinj})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("timeinj fired outside its package scope:\n%v", diags)
	}
}

func TestSuppressionWithReason(t *testing.T) {
	// The fixture has a finding-shaped global under a reasoned ignore;
	// zero expectations means zero surviving findings.
	linttest.Run(t, "suppress", "mira/internal/suppress", lint.Noglobals)
}

// TestSuppressionWithoutReason asserts the two-finding contract of a
// bare directive: it suppresses nothing, and it is reported itself.
// (This cannot be a // want fixture: an expectation appended to the
// directive's line would parse as its reason.)
func TestSuppressionWithoutReason(t *testing.T) {
	root := linttest.ModuleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "suppress_noreason")
	pkg, err := lint.LoadDir(root, dir, "mira/internal/suppress")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{lint.Noglobals})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2 (bare directive + unsuppressed finding):\n%v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "lint:ignore directive needs a reason") {
		t.Errorf("first finding = %s, want the bare-directive report", diags[0])
	}
	if !strings.Contains(diags[1].Message, "counter is mutable global state") {
		t.Errorf("second finding = %s, want the unsuppressed noglobals finding", diags[1])
	}
}

// TestSuppressionStale asserts that a reasoned directive which
// suppresses nothing is a finding, so exemptions cannot outlive the code
// they excused. Only directives naming an analyzer that ran are judged:
// the fixture's detorder directive stays quiet under noglobals alone.
func TestSuppressionStale(t *testing.T) {
	root := linttest.ModuleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "suppress_stale")
	pkg, err := lint.LoadDir(root, dir, "mira/internal/suppress")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{lint.Noglobals})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1 (the stale directive):\n%v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "noglobals" || d.Pos.Line != 15 ||
		!strings.Contains(d.Message, "lint:ignore directive suppresses nothing") {
		t.Errorf("finding = %s, want the stale noglobals directive at line 15", d)
	}
}

// TestScopedAnalyzersRespectImportPath re-type-checks the multovf
// fixture under an out-of-scope import path: the same bug-shaped code
// must produce zero findings, proving scoping is by package, not by
// code shape.
func TestScopedAnalyzersRespectImportPath(t *testing.T) {
	root := linttest.ModuleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "multovf")
	pkg, err := lint.LoadDir(root, dir, "mira/internal/elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{lint.Multovf})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("multovf fired outside its package scope:\n%v", diags)
	}
}

// TestAllIsComplete pins the suite roster: forgetting to register a new
// analyzer in All() would silently drop it from mira-vet.
func TestAllIsComplete(t *testing.T) {
	want := []string{"multovf", "detorder", "ctxflow", "panicfree", "noglobals", "obsnames",
		"cachekey", "lockdisc", "timeinj", "goroleak", "errdrop"}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestLoadTree loads the real module and smoke-checks the loader path
// mira-vet uses: every internal package type-checks against export data.
func TestLoadTree(t *testing.T) {
	root := linttest.ModuleRoot(t)
	pkgs, err := lint.Load(root, "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "mira/internal/lint" {
		t.Fatalf("Load returned %v, want exactly mira/internal/lint", pkgs)
	}
	if pkgs[0].Types == nil || len(pkgs[0].Files) == 0 {
		t.Fatal("loaded package has no type information or files")
	}
}
