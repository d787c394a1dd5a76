package experiments

// Conformance set for the named paper suites, in the directory-driven
// style of the OpenMetrics conformance suite: every directory under
// testdata/suites/ is one test case named after a suite, holding that
// suite's expected output under ScaledConfig in each report encoding.
// The runner walks the tree, runs the suite through report.Runner, and
// compares every encoding byte for byte, so a change to any published
// number, caption, column, or encoding shows up as a diff here.
//
// After an intended output change, regenerate the files with
//
//	go test ./internal/experiments -run TestSuiteConformance -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mira/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/suites from the current suite output")

const conformanceDir = "testdata/suites"

// conformanceFiles maps each case file to the encoding it pins.
var conformanceFiles = map[string]report.Format{
	"table.txt": report.FormatTable,
	"data.csv":  report.FormatCSV,
	"data.json": report.FormatJSON,
	"data.md":   report.FormatMarkdown,
}

func TestSuiteConformance(t *testing.T) {
	suites := SuiteMap(ScaledConfig())
	if *update {
		for name := range suites {
			if err := os.MkdirAll(filepath.Join(conformanceDir, name), 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(conformanceDir)
	if err != nil {
		t.Fatal(err)
	}
	var cases []string
	for _, e := range entries {
		if e.IsDir() {
			cases = append(cases, e.Name())
		}
	}
	sort.Strings(cases)
	if len(cases) != len(suites) {
		t.Errorf("%d conformance cases %v for %d suites %v", len(cases), cases, len(suites), SuiteNames(ScaledConfig()))
	}
	r := report.NewRunner(testEng)
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			suite, ok := suites[name]
			if !ok {
				t.Fatalf("no suite named %q", name)
			}
			rep, err := r.Run(bg(), suite)
			if err != nil {
				t.Fatal(err)
			}
			for file, format := range conformanceFiles {
				var got bytes.Buffer
				if err := rep.Encode(&got, format); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(conformanceDir, name, file)
				if *update {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				diffGolden(t, path, got.String(), string(want))
			}
		})
	}
}
