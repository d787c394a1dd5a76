// Package report is the results layer of the reproduction: the paper's
// deliverables — its tables and figure series — as typed data artifacts
// instead of hardcoded print routines.
//
// A [Suite] declaratively describes what to produce: sections over
// named workloads (the benchprogs registry, or caller-supplied source)
// × scenario grids (sizes, explicit environments, architectures) ×
// query kinds. A [Runner] with an injected engine compiles each section
// down to the existing engine.Sweep/engine.Query batches and assembles
// a [Report]: tables as schema'd columns plus rows of typed values,
// with deterministic ordering and per-row errors. Multi-format
// encoders (JSON, CSV, the paper's ASCII table style, Markdown) render
// the same Report everywhere — library, CLI, and daemon — so a new
// scenario is a data file, not a new Go function.
package report

import (
	"fmt"
	"strconv"
)

// ColKind is a column's value type, which also selects its rendering.
type ColKind int

const (
	// ColString renders the cell's string verbatim.
	ColString ColKind = iota
	// ColInt renders an integer count.
	ColInt
	// ColFloat renders a number in %.{Prec}g form (the paper's tables
	// print large counts in scientific shorthand, e.g. 8e+07).
	ColFloat
	// ColPct renders a percentage in %.{Prec}f%% form. A null cell — an
	// undefined relative error — renders as "n/a" and encodes as JSON
	// null.
	ColPct

	numColKinds
)

var colKindNames = [numColKinds]string{
	ColString: "string",
	ColInt:    "int",
	ColFloat:  "float",
	ColPct:    "percent",
}

// String returns the kind's wire name.
func (k ColKind) String() string {
	if k < 0 || k >= numColKinds {
		return fmt.Sprintf("ColKind(%d)", int(k))
	}
	return colKindNames[k]
}

// Column is one schema'd report column.
type Column struct {
	// Name is the header label.
	Name string
	// Kind types every cell in the column.
	Kind ColKind
	// Width left-justifies the rendered cell to this many characters in
	// the ASCII encoding (the paper's fixed-width style). 0 means
	// auto-size to the widest cell. The last column is never padded.
	Width int
	// Prec is the precision for ColFloat (%.{Prec}g) and ColPct
	// (%.{Prec}f%%) cells.
	Prec int
}

// valueTag discriminates a Value's payload.
type valueTag uint8

const (
	tagNull valueTag = iota
	tagStr
	tagInt
	tagFloat
)

// Value is one typed report cell. The zero Value is null.
type Value struct {
	s   string
	i   int64
	f   float64
	tag valueTag
}

// Str returns a string cell.
func Str(s string) Value { return Value{s: s, tag: tagStr} }

// Int returns an integer cell.
func Int(i int64) Value { return Value{i: i, tag: tagInt} }

// Float returns a floating-point cell.
func Float(f float64) Value { return Value{f: f, tag: tagFloat} }

// Null returns the null cell: "n/a" in text encodings, null in JSON.
func Null() Value { return Value{} }

// IsNull reports whether the cell is null.
func (v Value) IsNull() bool { return v.tag == tagNull }

// num converts a numeric cell to float64 (0 for string/null cells).
func (v Value) num() float64 {
	switch v.tag {
	case tagInt:
		return float64(v.i)
	case tagFloat:
		return v.f
	}
	return 0
}

// render formats the cell under col's schema, unpadded.
func (v Value) render(col Column) string {
	if v.tag == tagNull {
		return "n/a"
	}
	switch col.Kind {
	case ColString:
		if v.tag == tagStr {
			return v.s
		}
		return v.renderRaw()
	case ColInt:
		if v.tag == tagFloat {
			return strconv.FormatInt(int64(v.f), 10)
		}
		return strconv.FormatInt(v.i, 10)
	case ColFloat:
		return fmt.Sprintf("%.*g", col.Prec, v.num())
	case ColPct:
		return fmt.Sprintf("%.*f%%", col.Prec, v.num())
	}
	return v.renderRaw()
}

// String formats the cell with full precision and no schema, as CSV
// does ("" for null).
func (v Value) String() string { return v.renderRaw() }

// renderRaw formats the cell with full precision and no schema — the
// CSV form, where consumers parse values instead of reading them.
func (v Value) renderRaw() string {
	switch v.tag {
	case tagStr:
		return v.s
	case tagInt:
		return strconv.FormatInt(v.i, 10)
	case tagFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	}
	return "" // null: empty CSV field
}

// Row is one table row: cells matching the table's column schema, plus
// an optional error. A failed grid point (overflow, cancellation) keeps
// its place in the table — parameter cells filled, value cells null,
// Error carrying the cause — so ordering is deterministic even under
// partial failure.
type Row struct {
	Cells []Value
	Error string
}

// Table is one report section: a caption, a column schema, and rows.
type Table struct {
	// Name identifies the table in encodings ("table_iii").
	Name string
	// Caption is the paper-style caption line above the header.
	Caption string
	// Indent prefixes header and rows (not the caption) with spaces —
	// the Fig. 7 series style.
	Indent int
	// Columns is the schema; every row's Cells align with it.
	Columns []Column
	// Rows are the data, in deterministic (grid or suite) order.
	Rows []Row
}

// Errs collects the per-row failures, nil when every row succeeded.
func (t *Table) Errs() []error {
	var out []error
	for i := range t.Rows {
		if e := t.Rows[i].Error; e != "" {
			out = append(out, fmt.Errorf("%s row %d: %s", t.Name, i, e))
		}
	}
	return out
}

// Report is a completed suite run: its tables in suite order.
type Report struct {
	// Suite is the producing suite's name.
	Suite string
	// Title is the suite's human title.
	Title string
	// Tables are the produced sections, in declaration order.
	Tables []Table
}

// Errs collects every per-row failure across the report.
func (r *Report) Errs() []error {
	var out []error
	for i := range r.Tables {
		out = append(out, r.Tables[i].Errs()...)
	}
	return out
}

// Rows counts the report's data rows across all tables.
func (r *Report) Rows() int {
	n := 0
	for i := range r.Tables {
		n += len(r.Tables[i].Rows)
	}
	return n
}
