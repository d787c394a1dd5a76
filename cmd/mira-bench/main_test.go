package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/report"
)

// runBench runs the command on args and returns its exit code, stdout
// and stderr.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunList pins -list: one line per suite, name then title, in the
// paper's presentation order.
func TestRunList(t *testing.T) {
	code, out, errOut := runBench(t, "-list", "-scaled")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var want strings.Builder
	for _, s := range experiments.Suites(experiments.ScaledConfig()) {
		fmt.Fprintf(&want, "%-12s %s\n", s.Name, s.Title)
	}
	if out != want.String() {
		t.Errorf("-list printed\n%s\nwant\n%s", out, want.String())
	}
}

// TestRunSuites drives the suite mode through run: table output carries
// a banner per suite, -paper-sizes appends the static lines after
// Table IV, one JSON suite is one object and several are one array,
// and CSV separates suites with a blank line.
func TestRunSuites(t *testing.T) {
	suites := experiments.SuiteMap(experiments.ScaledConfig())

	code, out, errOut := runBench(t, "-suite", "table_iv,table_i", "-scaled", "-paper-sizes", "-j", "1")
	if code != 0 {
		t.Fatalf("table: exit %d: %s", code, errOut)
	}
	i1 := strings.Index(out, "==== "+suites["table_i"].Title+" ====\n")
	i4 := strings.Index(out, "==== "+suites["table_iv"].Title+" ====\n")
	paper := strings.Index(out, "static-only at paper size 256    (nrep=30) Mira=1.0125e+09")
	if i1 < 0 || i4 < 0 || paper < 0 || !(i1 < i4 && i4 < paper) {
		t.Errorf("table output lacks the banners in paper order or the paper-size lines after Table IV:\n%s", out)
	}
	if strings.Contains(out, "paper size 2000000") {
		t.Errorf("stream's paper sizes printed without Table III:\n%s", out)
	}

	type suiteJSON struct {
		Suite string `json:"suite"`
	}
	code, out, errOut = runBench(t, "-suite", "table_i", "-scaled", "-format", "json")
	var one suiteJSON
	if code != 0 || json.Unmarshal([]byte(out), &one) != nil || one.Suite != "table_i" {
		t.Errorf("one JSON suite: exit %d (%s), want one table_i object:\n%s", code, errOut, out)
	}
	code, out, errOut = runBench(t, "-suite", "table_ii,table_i", "-scaled", "-format", "json")
	var many []suiteJSON
	if code != 0 || json.Unmarshal([]byte(out), &many) != nil || len(many) != 2 ||
		many[0].Suite != "table_i" || many[1].Suite != "table_ii" {
		t.Errorf("two JSON suites: exit %d (%s), want one array [table_i table_ii]:\n%s", code, errOut, out)
	}

	code, out, errOut = runBench(t, "-suite", "table_i,table_ii", "-scaled", "-format", "csv")
	if code != 0 || strings.Contains(out, "====") || !strings.Contains(out, "\n\n# table_ii:") {
		t.Errorf("CSV suites: exit %d (%s), want no banners and a blank line before table_ii:\n%s", code, errOut, out)
	}
}

// TestPaperSizeLines pins -paper-sizes: the static FPI of stream and
// dgemm at the paper's three full problem sizes each, beside the
// paper's reference values.
func TestPaperSizeLines(t *testing.T) {
	runner := report.NewRunner(engine.New(engine.Options{}))
	for _, c := range []struct {
		workload string
		want     string
	}{
		{"stream", "static-only at paper size 2000000      Mira=8e+07 (paper Mira: 8.20E7 / 4.100E9 / 2.050E10)\n" +
			"static-only at paper size 50000000     Mira=2e+09 (paper Mira: 8.20E7 / 4.100E9 / 2.050E10)\n" +
			"static-only at paper size 100000000    Mira=4e+09 (paper Mira: 8.20E7 / 4.100E9 / 2.050E10)\n"},
		{"dgemm", "static-only at paper size 256    (nrep=30) Mira=1.0125e+09 (paper Mira: 1.0125E9 / 8.0769E9 / 6.4519E10)\n" +
			"static-only at paper size 512    (nrep=30) Mira=8.0767e+09 (paper Mira: 1.0125E9 / 8.0769E9 / 6.4519E10)\n" +
			"static-only at paper size 1024   (nrep=30) Mira=6.4519e+10 (paper Mira: 1.0125E9 / 8.0769E9 / 6.4519E10)\n"},
	} {
		var sb strings.Builder
		if err := paperSizeLines(context.Background(), &sb, runner, c.workload); err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if sb.String() != c.want {
			t.Errorf("%s printed\n%s\nwant\n%s", c.workload, sb.String(), c.want)
		}
	}
}

// TestRunUsageErrors pins that a bad suite-mode invocation exits 2
// before any suite runs, naming the problem on stderr.
func TestRunUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scaled"}, "nothing selected"},
		{[]string{"-suite", "table_vi"}, `unknown suite "table_vi"`},
		{[]string{"-suite", "table_i", "-format", "xml"}, "xml"},
		{[]string{"-suite", "table_i", "-arch", "vax"}, `"vax"`},
		{[]string{"-suite", "table_iv", "-paper-sizes", "-format", "json"}, "-paper-sizes requires -format table"},
		{[]string{"-nosuchflag"}, "nosuchflag"},
	} {
		code, out, errOut := runBench(t, c.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %q", c.args, code, out, errOut, c.want)
		}
	}
}
