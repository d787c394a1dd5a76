package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/lint"
	"mira/internal/lint/linttest"
)

// dirtyFile carries a detorder violation (range over map printing in
// iteration order), the analyzer that applies in any package.
const dirtyFile = `package p

import "fmt"

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`

const cleanFile = `package p

func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`

// writeModule lays out a throwaway module for the CLI to vet.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// vet invokes the CLI in-process.
func vet(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeOnFindings(t *testing.T) {
	dir := writeModule(t, dirtyFile)
	code, stdout, stderr := vet("-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "[mira/detorder]") {
		t.Errorf("stdout missing the detorder diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr missing the finding count:\n%s", stderr)
	}
}

func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, cleanFile)
	code, stdout, stderr := vet("-C", dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed diagnostics:\n%s", stdout)
	}
}

func TestExitCodeLoadFailure(t *testing.T) {
	dir := writeModule(t, cleanFile)
	code, _, stderr := vet("-C", dir, "./no/such/package")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
}

func TestListDescribesSuite(t *testing.T) {
	code, stdout, _ := vet("-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"multovf", "detorder", "ctxflow", "panicfree", "noglobals", "obsnames",
		"cachekey", "lockdisc", "timeinj", "goroleak", "errdrop"} {
		if !strings.Contains(stdout, "mira/"+name) {
			t.Errorf("-list output missing mira/%s:\n%s", name, stdout)
		}
	}
}

// TestJSONReport pins the -json contract: the findings
// list, the mira_vet_findings_total metric, and per-analyzer findings
// and wall time.
func TestJSONReport(t *testing.T) {
	dir := writeModule(t, dirtyFile)
	code, stdout, _ := vet("-C", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s", code, stdout)
	}
	var rep struct {
		Findings []struct {
			Pos      string `json:"pos"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
		Metrics struct {
			Total int `json:"mira_vet_findings_total"`
		} `json:"metrics"`
		Analyzers map[string]struct {
			Findings    int     `json:"findings"`
			WallSeconds float64 `json:"wall_seconds"`
		} `json:"analyzers"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout)
	}
	if rep.Metrics.Total != 1 {
		t.Errorf("mira_vet_findings_total = %d, want 1", rep.Metrics.Total)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "detorder" {
		t.Errorf("findings = %+v, want one detorder finding", rep.Findings)
	}
	if len(rep.Analyzers) != len(lint.All()) {
		t.Errorf("analyzers section has %d entries, want %d (every analyzer reports cost)",
			len(rep.Analyzers), len(lint.All()))
	}
	st, ok := rep.Analyzers["detorder"]
	if !ok || st.Findings != 1 {
		t.Errorf("analyzers[detorder] = %+v, want Findings=1", st)
	}
	for name, s := range rep.Analyzers {
		if s.WallSeconds < 0 {
			t.Errorf("analyzers[%s].wall_seconds = %v, negative", name, s.WallSeconds)
		}
	}
}

// TestSelfLint is the satellite contract that the linter lints itself:
// internal/lint and cmd/mira-vet run under the full suite (as part of
// `make lint`'s ./...) and must stay at zero findings.
func TestSelfLint(t *testing.T) {
	root := linttest.ModuleRoot(t)
	code, stdout, stderr := vet("-C", root, "./internal/lint/...", "./cmd/mira-vet")
	if code != 0 {
		t.Fatalf("self-lint exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestFactFlowAcrossPackages pins cross-package facts in the
// standalone loader: vetting only the engine-scoped package loads its
// in-module dependency FactsOnly, whose LifecycleBound fact on
// DrainLoop must reach the engine package through the shared fact
// store, so only the unbound spawn of Fire is reported.
func TestFactFlowAcrossPackages(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module mira\n\ngo 1.24\n")
	write("internal/bg/bg.go", `package bg

func DrainLoop() {
	done := make(chan struct{})
	<-done
}

func Fire() {
	println("fired")
}
`)
	write("internal/engine/engine.go", `package engine

import "mira/internal/bg"

func Spawn() {
	go bg.DrainLoop()
	go bg.Fire()
}
`)

	code, stdout, stderr := vet("-C", dir, "./internal/engine")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (the unbound spawn is a finding)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "goroutine runs Fire") {
		t.Errorf("missing the goroleak finding for the unbound spawn:\n%s", stdout)
	}
	if strings.Contains(stdout, "DrainLoop") {
		t.Errorf("DrainLoop was reported: its LifecycleBound fact did not reach the importer:\n%s", stdout)
	}
}
