// Command mira-vet runs Mira's custom static-analysis suite
// (internal/lint): eleven analyzers, each encoding an invariant derived
// from a real historical bug in this repository. It is what `make lint`
// and CI run:
//
//	mira-vet ./...                 # vet the whole module, exit 1 on findings
//	mira-vet -list                 # describe the analyzers
//	mira-vet -json ./...           # findings + metrics as JSON on stdout
//	mira-vet -C /path/to/mod ./...
//
// Packages are loaded in dependency order; in-module dependencies the
// patterns did not match are loaded facts-only, so cross-package facts
// reach their importers through one in-memory store. Test files are not
// vetted. Findings are suppressed only in the source, with a reason
// (//lint:ignore mira/<name> <reason>); there is no global off switch.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mira/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outf writes best-effort CLI output: a failed write to the (possibly
// piped, possibly closed) output stream has no better handling than the
// message being lost.
func outf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mira-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to vet in")
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings and metrics as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			outf(stdout, "mira/%s\n    %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		outf(stderr, "mira-vet: %v\n", err)
		return 2
	}
	runner := lint.NewRunner(analyzers)
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := runner.RunPackage(pkg)
		if err != nil {
			outf(stderr, "mira-vet: %v\n", err)
			return 2
		}
		all = append(all, diags...)
	}

	if *asJSON {
		if err := writeJSONReport(stdout, runner, all); err != nil {
			outf(stderr, "mira-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range all {
			outf(stdout, "%s\n", d.String())
		}
	}
	if len(all) > 0 {
		outf(stderr, "mira-vet: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// jsonReport is the -json output shape: the findings plus the metric
// series (mira_vet_findings_total and per-analyzer cost).
type jsonReport struct {
	Findings []jsonFinding          `json:"findings"`
	Metrics  jsonMetrics            `json:"metrics"`
	Analyzer map[string]jsonPerAnlz `json:"analyzers"`
}

type jsonFinding struct {
	Pos      string `json:"pos"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonMetrics struct {
	FindingsTotal int `json:"mira_vet_findings_total"`
}

type jsonPerAnlz struct {
	Findings    int     `json:"findings"`
	WallSeconds float64 `json:"wall_seconds"`
}

func writeJSONReport(w io.Writer, runner *lint.Runner, diags []lint.Diagnostic) error {
	rep := jsonReport{
		Findings: []jsonFinding{},
		Metrics:  jsonMetrics{FindingsTotal: runner.TotalFindings()},
		Analyzer: map[string]jsonPerAnlz{},
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonFinding{
			Pos:      d.Pos.String(),
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	names := make([]string, 0, len(runner.Stats))
	for name := range runner.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := runner.Stats[name]
		rep.Analyzer[name] = jsonPerAnlz{Findings: st.Findings, WallSeconds: st.Seconds}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
