// Package linttest is mira-vet's analysistest analogue: it runs
// analyzers over fixture packages under internal/lint/testdata/src and
// diffs the findings against `// want "substring"` expectations embedded
// in the fixtures. Because fixtures live in testdata (invisible to `go
// list ./...`), each one is type-checked under an explicit import path,
// which is how fixtures exercise analyzers whose rules are scoped to
// specific packages (a multovf fixture type-checks as
// "mira/internal/model" without touching the real package).
//
// A fixture line may carry any number of expectations:
//
//	total.Flops += n // want "raw \"+=\""
//
// Every reported diagnostic must be matched by an expectation on its
// line (substring match), and every expectation must be hit — so a
// fixture fails both when the analyzer goes quiet (disabled or broken)
// and when it over-reports.
package linttest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mira/internal/lint"
)

// wantRE captures the expectation list after a // want marker.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRE captures one quoted expectation, escapes included.
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

// ModuleRoot locates the enclosing module's root directory.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatalf("not inside a module")
	}
	return filepath.Dir(gomod)
}

// Run loads internal/lint/testdata/src/<fixture> as a package with the
// given import path, applies the analyzers (suppression directives
// included, exactly as mira-vet would), and asserts the findings equal
// the fixture's // want expectations.
func Run(t *testing.T, fixture, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	RunMulti(t, []Pkg{{Dir: fixture, ImportPath: importPath}}, analyzers...)
}

// Pkg names one fixture package for RunMulti: its directory under
// internal/lint/testdata/src and the import path it impersonates.
type Pkg struct {
	Dir        string
	ImportPath string
}

// RunMulti loads several fixture packages — listed dependencies first —
// and runs the analyzers over each through one shared runner, so object
// facts exported while analyzing an early package are importable while
// analyzing a later one, exactly as mira-vet threads its fact store
// through the dependency-ordered package list. Findings from every package are diffed
// against the union of // want expectations across every fixture
// directory. Fixture import paths shadow real packages: a fixture
// impersonating mira/internal/core is what later fixtures' imports of
// that path resolve to.
func RunMulti(t *testing.T, pkgs []Pkg, analyzers ...*lint.Analyzer) {
	t.Helper()
	root := ModuleRoot(t)
	fixtures := make([]lint.FixturePkg, len(pkgs))
	for i, p := range pkgs {
		fixtures[i] = lint.FixturePkg{
			Dir:        filepath.Join(root, "internal", "lint", "testdata", "src", p.Dir),
			ImportPath: p.ImportPath,
		}
	}
	loaded, err := lint.LoadDirs(root, fixtures)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgs, err)
	}
	runner := lint.NewRunner(analyzers)
	var diags []lint.Diagnostic
	for i, pkg := range loaded {
		ds, err := runner.RunPackage(pkg)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkgs[i].Dir, err)
		}
		diags = append(diags, ds...)
	}

	var wants []*expectation
	for _, f := range fixtures {
		wants = append(wants, collectWants(t, f.Dir)...)
	}
	for _, d := range diags {
		if !match(wants, d) {
			t.Errorf("unexpected finding %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding containing %q, got none",
				w.file, w.line, w.substr)
		}
	}
}

// collectWants scans every fixture file for // want expectations.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			quoted := quotedRE.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: malformed // want (no quoted expectations)", path, i+1)
			}
			for _, q := range quoted {
				substr, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad expectation %s: %v", path, i+1, q, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, substr: substr})
			}
		}
	}
	return wants
}

// match marks and reports the first unmatched expectation on the
// diagnostic's line whose substring occurs in the message.
func match(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.line != d.Pos.Line || w.file != d.Pos.Filename {
			continue
		}
		if strings.Contains(d.Message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}
