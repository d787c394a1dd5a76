package experiments

// Golden tests for the report redesign: the new table encoder must
// render the paper's tables byte-equal to the legacy Fprintf-built
// renderers (FormatTable / FormatTableI / FormatTableII / FormatFig7,
// reproduced verbatim below as test oracles), so the redesign provably
// changes none of the published numbers or their presentation.
//
// Table I and Table II render at the paper's default sizes (they are
// static/model-only and free at any size); the VM-validated tables use
// the proportionally scaled sizes — byte equality of the *encoding* is
// what these tests pin, and it holds at every size.

import (
	"fmt"
	"strings"
	"testing"

	"mira/internal/report"
)

// legacyErrPct is the legacy ValidationRow.ErrorPct for nonzero dynamic
// counts (the golden rows all have real measurements).
func legacyErrPct(dyn, static int64) float64 {
	d := float64(static-dyn) / float64(dyn) * 100
	if d < 0 {
		return -d
	}
	return d
}

// legacyFormatTable is the deleted experiments.FormatTable, verbatim.
func legacyFormatTable(caption string, rows []report.ValidationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", caption)
	fmt.Fprintf(&sb, "%-14s %-28s %-14s %-14s %s\n", "Size", "Function", "TAU", "Mira", "Error")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-28s %-14.4g %-14.4g %.3f%%\n",
			r.Label.String(), r.Function, float64(r.Dynamic), float64(r.Static), legacyErrPct(r.Dynamic, r.Static))
	}
	return sb.String()
}

// legacyFormatTableI is the deleted experiments.FormatTableI, verbatim.
func legacyFormatTableI(rows []TableIRow) string {
	var sb strings.Builder
	sb.WriteString("Table I: Loop coverage in high-performance applications\n")
	fmt.Fprintf(&sb, "%-12s %-8s %-12s %-12s %s\n",
		"Application", "Loops", "Statements", "InLoops", "Percentage")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-8d %-12d %-12d %.0f%%\n",
			r.Application, r.Loops, r.Statements, r.InLoops, r.Percentage)
	}
	return sb.String()
}

// legacyFormatTableII is the deleted experiments.FormatTableII, verbatim.
func legacyFormatTableII(rows []CategoryRow) string {
	var sb strings.Builder
	sb.WriteString("Table II: Categorized Instruction Counts of Function cg_solve\n")
	fmt.Fprintf(&sb, "%-42s %-14s %s\n", "Category", "Count", "Share (Fig. 6)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-42s %-14.3g %.1f%%\n", r.Category, float64(r.Count), r.Fraction*100)
	}
	return sb.String()
}

// legacyFormatFig7 is the deleted experiments.FormatFig7, verbatim, over
// one validation section's rows per panel. A panel's x label is the
// point label, or the function name for a one-point miniFE panel.
func legacyFormatFig7(panels []report.ValidationSection, rows [][]report.ValidationRow) string {
	var sb strings.Builder
	for pi, s := range panels {
		sb.WriteString(s.Caption + "\n")
		fmt.Fprintf(&sb, "  %-24s %-14s %-14s %s\n", "x", "TAU", "Mira", "err")
		for _, r := range rows[pi] {
			x := r.Label.String()
			if r.Label.IsNull() {
				x = r.Function
			}
			fmt.Fprintf(&sb, "  %-24s %-14.4g %-14.4g %.3f%%\n",
				x, float64(r.Dynamic), float64(r.Static), legacyErrPct(r.Dynamic, r.Static))
		}
	}
	return sb.String()
}

func encodeTables(t *testing.T, tables ...report.Table) string {
	t.Helper()
	rep := report.Report{Tables: tables}
	var sb strings.Builder
	if err := rep.EncodeText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func diffGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s: line %d differs:\n got: %q\nwant: %q", what, i+1, g, w)
			return
		}
	}
	t.Errorf("%s: outputs differ in length only:\n got:\n%s\nwant:\n%s", what, got, want)
}

// TestGoldenTableI: the loop-coverage survey at the paper's content.
func TestGoldenTableI(t *testing.T) {
	rows, err := TableI(bg(), testEng)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "table I", encodeTables(t, TableITable(rows)), legacyFormatTableI(rows))
}

// TestGoldenTableII: cg_solve's categorized counts at the paper's
// default 30x30x30 brick (model evaluation — free at full size).
func TestGoldenTableII(t *testing.T) {
	rows, err := TableII(bg(), testEng, PaperConfig().MiniSmall)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "table II", encodeTables(t, TableIITable(rows)), legacyFormatTableII(rows))
}

// TestGoldenValidationTables: the Table III/IV/V layout over VM-paired
// rows at scaled sizes.
func TestGoldenValidationTables(t *testing.T) {
	c := ScaledConfig()
	for _, tc := range []struct {
		what, suite, caption string
		points               int
	}{
		{"table III", "table_iii", "", 2},
		{"table IV", "table_iv", "DGEMM validation", 2},
		{"table V", "table_v", "", 1},
	} {
		sec := validation(t, c, tc.suite, 0)
		sec.Points = sec.Points[:tc.points]
		if tc.caption != "" {
			sec.Caption = tc.caption
		}
		rows := measure(t, sec)
		diffGolden(t, tc.what, encodeTables(t, sec.Table(rows)), legacyFormatTable(sec.Caption, rows))
	}
}

// TestGoldenFig7: the four-panel series block — tables with the Fig. 7
// indent, concatenated with no separators, exactly like the legacy
// renderer.
func TestGoldenFig7(t *testing.T) {
	c := fig7Config()
	var panels []report.ValidationSection
	var rows [][]report.ValidationRow
	var tables []report.Table
	for i := 0; i < 3; i++ {
		sec := validation(t, c, "fig7", i)
		r := measure(t, sec)
		panels, rows, tables = append(panels, sec), append(rows, r), append(tables, sec.Table(r))
	}
	diffGolden(t, "fig 7", encodeTables(t, tables...), legacyFormatFig7(panels, rows))
}
