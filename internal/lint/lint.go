// Package lint is mira-vet's analysis framework and analyzer suite:
// eleven custom static analyses, each encoding an invariant this repository
// learned the hard way (see README "Static analysis" and the per-analyzer
// docs). The framework mirrors the golang.org/x/tools/go/analysis API
// shape — Analyzer, Pass, Reportf — but is built entirely on the standard
// library (go/ast, go/types, and export data produced by `go list
// -export`), because the tree takes no external module dependencies. An
// analyzer written against Pass ports to x/tools/go/analysis mechanically
// should the dependency ever land.
//
// Findings are suppressible at the site with a documented reason:
//
//	//lint:ignore mira/<name> <reason>
//
// placed on the flagged line or the line directly above it. A directive
// without a reason is itself a finding — suppressions must say why — and
// so is one that suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one named static analysis. Run inspects a single
// type-checked package through the Pass and reports findings. Analyzers
// that declare FactTypes are interprocedural: they export facts on the
// package's objects and import facts from its dependencies.
type Analyzer struct {
	// Name is the short analyzer name; diagnostics and suppression
	// directives refer to it as "mira/<name>".
	Name string
	// Doc is the one-paragraph description `mira-vet -list` prints:
	// the invariant enforced and the historical bug that motivated it.
	Doc string
	// Run performs the analysis.
	Run func(*Pass) error
	// FactTypes lists a zero value of each Fact type this analyzer
	// exports or imports. Declaring one marks the analyzer as needing to
	// run on dependency packages (facts-only, diagnostics discarded) so
	// its facts exist before the packages that import them are analyzed.
	FactTypes []Fact
}

// A Pass connects one analyzer to one package of parsed, type-checked
// syntax. The field set intentionally matches x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *Facts
}

// ExportObjectFact attaches fact to obj for downstream packages. The
// fact type must appear in the analyzer's FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts != nil {
		p.facts.set(obj, fact)
	}
}

// ImportObjectFact copies the fact of fact's type previously exported
// on obj (by this analyzer, on this or any dependency package) into
// *fact and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts != nil && p.facts.get(obj, fact)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [mira/%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in stable order: the six
// syntactic analyzers from the original mira-vet, then the five
// dataflow analyzers added with the cfg/dataflow/facts engine.
func All() []*Analyzer {
	return []*Analyzer{
		Multovf,
		Detorder,
		Ctxflow,
		Panicfree,
		Noglobals,
		Obsnames,
		Cachekey,
		Lockdisc,
		Timeinj,
		Goroleak,
		Errdrop,
	}
}

// ignoreRE matches a suppression directive. The reason group is what
// makes a suppression self-documenting; an empty reason is reported.
var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+mira/([a-z]+)\s*(.*)$`)

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	analyzer string
	file     string
	line     int
	reason   string
	used     bool // suppressed at least one finding
}

// suppressions collects every directive in the package's files.
func suppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, suppression{
					analyzer: m[1],
					file:     pos.Filename,
					line:     pos.Line,
					reason:   strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// AnalyzerStat is one analyzer's aggregate cost and yield across a run;
// mira-vet -json surfaces these as mira_vet_findings_total and
// per-analyzer wall-time.
type AnalyzerStat struct {
	Findings int
	Seconds  float64
}

// A Runner executes an analyzer suite over a sequence of packages,
// threading one fact store through all of them. Feed it packages in
// dependency order (as `go list -deps` and Load emit them) so facts
// exported by a dependency exist before its importers run.
type Runner struct {
	Analyzers []*Analyzer
	Facts     *Facts
	Stats     map[string]*AnalyzerStat
}

// NewRunner builds a Runner with a fresh fact store.
func NewRunner(analyzers []*Analyzer) *Runner {
	r := &Runner{
		Analyzers: analyzers,
		Facts:     NewFacts(),
		Stats:     map[string]*AnalyzerStat{},
	}
	for _, a := range analyzers {
		r.Stats[a.Name] = &AnalyzerStat{}
	}
	return r
}

// TotalFindings sums findings across analyzers (mira_vet_findings_total).
func (r *Runner) TotalFindings() int {
	total := 0
	for _, s := range r.Stats {
		total += s.Findings
	}
	return total
}

// RunPackage runs the suite over one loaded package, applies suppression
// directives, and returns the surviving findings sorted by position.
// Directives missing a reason surface as findings themselves, and so do
// reasoned directives for an analyzer in the suite that suppressed no
// finding: an exemption must not outlive the code it excused. For a
// FactsOnly package only fact-producing analyzers run and diagnostics
// are discarded — the package is a dependency being mined for facts,
// not a vetting target.
func (r *Runner) RunPackage(pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range r.Analyzers {
		if pkg.FactsOnly && len(a.FactTypes) == 0 {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			facts:     r.Facts,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		err := a.Run(pass)
		if st := r.Stats[a.Name]; st != nil {
			st.Seconds += time.Since(start).Seconds()
		}
		if err != nil {
			return nil, fmt.Errorf("mira/%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	if pkg.FactsOnly {
		return nil, nil
	}

	sups := suppressions(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !suppress(sups, d) {
			kept = append(kept, d)
		}
	}
	for _, s := range sups {
		var msg string
		switch {
		case s.reason == "":
			msg = "lint:ignore directive needs a reason (//lint:ignore mira/" + s.analyzer + " <why>)"
		case !s.used && r.Stats[s.analyzer] != nil: // an analyzer the suite ran
			msg = "lint:ignore directive suppresses nothing (no mira/" + s.analyzer + " finding on this line or the next); delete it"
		default:
			continue
		}
		kept = append(kept, Diagnostic{
			Analyzer: s.analyzer,
			Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
			Message:  msg,
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	for _, d := range kept {
		if st := r.Stats[d.Analyzer]; st != nil {
			st.Findings++
		}
	}
	return kept, nil
}

// RunPackage runs analyzers over one package with a throwaway fact
// store. Cross-package facts do not propagate; use a Runner over a
// dependency-ordered package list when they must.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewRunner(analyzers).RunPackage(pkg)
}

// suppress reports whether a reasoned directive on the finding's line,
// or on the line directly above it, names the finding's analyzer, and
// marks every such directive used.
func suppress(sups []suppression, d Diagnostic) bool {
	hit := false
	for i, s := range sups {
		if s.analyzer != d.Analyzer || s.reason == "" || s.file != d.Pos.Filename {
			continue
		}
		if s.line == d.Pos.Line || s.line == d.Pos.Line-1 {
			sups[i].used = true
			hit = true
		}
	}
	return hit
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers used by several analyzers.

// isPkgFunc reports whether the call expression resolves to the function
// pkgPath.name (a package-level function, not a method).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	obj, ok := info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isInt64 reports whether t's underlying type is int64.
func isInt64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}
