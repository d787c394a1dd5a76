package mira

import (
	"context"

	"mira/internal/report"
)

// This file is the public report surface: the paper's tables and
// figures — and any user-defined scenario study — as typed, encodable
// data artifacts. A [Suite] declares sections (workload × scenario grid
// × query kind); [Engine.Report] runs it against the engine's caches
// and returns a [Report] whose tables carry schema'd columns, typed
// cells, per-row errors, and deterministic ordering; the Report encodes
// as JSON, CSV, the paper's ASCII table style, or Markdown. The same
// Suite values power mira-bench (-format) and mira-serve
// (POST /report), so a new scenario is a data file, not a new Go
// function.

// Suite declaratively describes a report: named sections over workloads
// × scenario grids × query kinds.
type Suite = report.Suite

// SuiteSpec is the wire (JSON) form of a declarative suite — what
// POST /report accepts inline; compile it with SuiteSpec.Suite.
type SuiteSpec = report.SuiteSpec

// Section is one suite entry.
type Section = report.Section

// GridSection is the declarative section: one workload, one function,
// one query kind, a scenario grid — compiled to a single closed-form
// sweep.
type GridSection = report.GridSection

// CompareSection ranks one workload function at one evaluation point
// across N architecture descriptions by predicted attainable GFLOP/s —
// empty Archs means every entry in the engine's registry.
type CompareSection = report.CompareSection

// SectionFunc adapts a function to a free-form, multi-table section.
type SectionFunc = report.SectionFunc

// ReportRunner executes suites against an injected engine.
type ReportRunner = report.Runner

// WorkloadRef names the program a section runs against: an embedded
// workload by name, an analyzed program by content key, or inline
// source.
type WorkloadRef = report.WorkloadRef

// Workload is one embedded, named evaluation workload.
type Workload = report.Workload

// Report is a completed suite run: typed tables in suite order.
type Report = report.Report

// Table is one report section: caption, column schema, typed rows.
type Table = report.Table

// Column is one schema'd report column.
type Column = report.Column

// Row is one table row with an optional per-row error.
type Row = report.Row

// Value is one typed report cell (string, int, float, or null).
type Value = report.Value

// ReportFormat names a report encoding.
type ReportFormat = report.Format

// The report encodings.
const (
	// FormatTable is the paper's fixed-width ASCII table style.
	FormatTable = report.FormatTable
	// FormatJSON is the structured wire form.
	FormatJSON = report.FormatJSON
	// FormatCSV is one comma-separated block per table.
	FormatCSV = report.FormatCSV
	// FormatMarkdown renders GitHub-style pipe tables.
	FormatMarkdown = report.FormatMarkdown
)

// ParseReportFormat maps a wire name ("table", "json", "csv",
// "markdown") to its encoding.
func ParseReportFormat(s string) (ReportFormat, error) { return report.ParseFormat(s) }

// Workloads lists the embedded workload registry (the paper's
// evaluation programs) in listing order.
func Workloads() []Workload { return report.Workloads() }

// LookupWorkload finds an embedded workload by registry name.
func LookupWorkload(name string) (Workload, bool) { return report.LookupWorkload(name) }

// NewReportRunner builds a suite runner over the engine — use it to run
// many suites, or when a SectionFunc needs the runner injected.
func (e *Engine) NewReportRunner() *ReportRunner { return report.NewRunner(e.e) }

// Report runs a suite against the engine: sections compile down to
// batched queries and closed-form sweeps over the engine's caches,
// per-cell failures land in the rows, and cancelling ctx aborts at the
// next section (and fails remaining grid points). The returned Report
// encodes with Encode/EncodeJSON/EncodeCSV/EncodeText/EncodeMarkdown.
func (e *Engine) Report(ctx context.Context, s Suite) (*Report, error) {
	return report.NewRunner(e.e).Run(ctx, s)
}
