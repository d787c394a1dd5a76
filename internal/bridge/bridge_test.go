package bridge_test

import (
	"maps"
	"testing"

	"mira/internal/benchprogs"
	"mira/internal/bridge"
	"mira/internal/cc"
	"mira/internal/dwarfline"
	"mira/internal/ir"
	"mira/internal/objfile"
	"mira/internal/parser"
	"mira/internal/sema"
)

func compile(t *testing.T, src string) *objfile.File {
	t.Helper()
	file, err := parser.ParseFile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cc.Compile(prog, cc.Options{SourceName: "t.c"})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestStatementToInstructionMapping(t *testing.T) {
	// One source statement maps to several instructions (paper
	// Sec. III-A2); positions separate the for header's clauses.
	src := "double f(int n) {\n" + // line 1
		"\tdouble s;\n" + // 2
		"\tint i;\n" + // 3
		"\ts = 0.0;\n" + // 4
		"\tfor (i = 0; i < n; i++) {\n" + // 5: init col 7, cond col 14, post col 21
		"\t\ts = s + 1.0;\n" + // 6
		"\t}\n" +
		"\treturn s;\n" + // 8
		"}\n"
	obj := compile(t, src)
	br := bridge.Build(obj)
	fb, ok := br.Func("f")
	if !ok {
		t.Fatal("no bridge for f")
	}

	// The FP statement on line 6 contains exactly one ADDSD plus its
	// movsd traffic.
	body := fb.At(6, 3)
	if body == nil {
		t.Fatalf("no site at 6:3; positions = %v", fb.Positions())
	}
	if opsOf(t, body)[ir.ADDSD] != 1 {
		t.Errorf("ADDSD at body = %d, want 1", opsOf(t, body)[ir.ADDSD])
	}
	if body.ByCategory[ir.CatSSEMove] == 0 {
		t.Error("no SSE2 movement at FP statement")
	}

	// The for header occupies three distinct column sites on line 5.
	var headerSites int
	for _, p := range fb.Positions() {
		if p.Line == 5 {
			headerSites++
		}
	}
	if headerSites != 3 {
		t.Errorf("header sites = %d, want 3 (init/cond/post)", headerSites)
	}

	// The condition site holds the compare and conditional jump.
	cond := fb.At(5, 14)
	if cond == nil || opsOf(t, cond)[ir.CMP] != 1 {
		t.Errorf("cond site = %+v", cond)
	}
	// The post site holds the increment and the back jump.
	post := fb.At(5, 21)
	if post == nil || opsOf(t, post)[ir.INC] != 1 || opsOf(t, post)[ir.JMP] != 1 {
		t.Errorf("post site = %+v", post)
	}
}

func TestEveryInstructionAttributed(t *testing.T) {
	obj := compile(t, `
double f(int n) {
	double a[n];
	int i;
	for (i = 0; i < n; i++) { a[i] = i; }
	return a[0];
}`)
	br := bridge.Build(obj)
	fb, _ := br.Func("f")
	var total int64
	for _, p := range fb.Positions() {
		sc := fb.At(int(p.Line), int(p.Col))
		total += sc.Instrs
	}
	sym, _ := obj.LookupSym("f")
	if total != int64(sym.Count) {
		t.Errorf("attributed %d instructions, symbol has %d", total, sym.Count)
	}
}

// opsOf returns a site's per-opcode counts as a map, failing the test
// unless the list is sorted by opcode without repeats or zero counts.
func opsOf(t *testing.T, sc *bridge.SiteCounts) map[ir.Op]int64 {
	t.Helper()
	out := map[ir.Op]int64{}
	for i, c := range sc.Ops {
		if c.N <= 0 || i > 0 && sc.Ops[i-1].Op >= c.Op {
			t.Fatalf("site %v: per-opcode counts %v not sorted and positive", sc.Pos, sc.Ops)
		}
		out[c.Op] = c.N
	}
	return out
}

// refSite is the reference grouping's counts for one position.
type refSite struct {
	sc  bridge.SiteCounts
	ops map[ir.Op]int64
}

// lookupBridge is the reference grouping: each instruction's position
// looked up in the line table on its own.
func lookupBridge(obj *objfile.File, sym *objfile.Symbol) map[bridge.Pos]refSite {
	out := map[bridge.Pos]refSite{}
	for idx, in := range obj.FuncText(sym) {
		var pos bridge.Pos
		if obj.Line != nil {
			if row, ok := obj.Line.Lookup(sym.Start + uint64(idx)); ok {
				pos = bridge.Pos{Line: row.Line, Col: row.Col}
			}
		}
		r, ok := out[pos]
		if !ok {
			r = refSite{sc: bridge.SiteCounts{Pos: pos}, ops: map[ir.Op]int64{}}
		}
		r.sc.ByCategory[in.Op.Cat()]++
		r.ops[in.Op]++
		r.sc.Flops += int64(in.Op.Flops())
		r.sc.Instrs++
		out[pos] = r
	}
	return out
}

func sameSites(t *testing.T, name string, fb *bridge.FuncBridge, want map[bridge.Pos]refSite) {
	t.Helper()
	if len(fb.Sites) != len(want) {
		t.Errorf("%s: %d positions, reference %d", name, len(fb.Sites), len(want))
	}
	for pos, r := range want {
		got, w := fb.Sites[pos], r.sc
		if got == nil || got.Pos != w.Pos || got.ByCategory != w.ByCategory || got.Flops != w.Flops || got.Instrs != w.Instrs || !maps.Equal(opsOf(t, got), r.ops) {
			t.Errorf("%s at %v: %+v, reference %+v %v", name, pos, got, w, r.ops)
		}
	}
}

// TestFuncMatchesLineLookup checks the run-by-run grouping against
// per-instruction lookups over every corpus program, and over a
// hand-made object whose rows start before a symbol, repeat an address,
// change inside a symbol and run past it, with one symbol before the
// first row and one name defined twice, where the last symbol wins.
func TestFuncMatchesLineLookup(t *testing.T) {
	for _, s := range benchprogs.Corpus() {
		obj := compile(t, s.Src)
		br := bridge.Build(obj)
		for i := range obj.Syms {
			sym := &obj.Syms[i]
			fb, ok := br.Func(sym.Name)
			if !ok || fb.Sym != sym {
				t.Fatalf("%s: no bridge for %s", s.Name, sym.Name)
			}
			sameSites(t, s.Name+"."+sym.Name, fb, lookupBridge(obj, sym))
		}
	}

	text := make([]ir.Instr, 12)
	for i := range text {
		text[i] = ir.Instr{Op: []ir.Op{ir.ADDSD, ir.MOVRR, ir.JMP}[i%3]}
	}
	obj := &objfile.File{
		Text: text,
		Syms: []objfile.Symbol{
			{Name: "pre", Start: 0, Count: 2},
			{Name: "dup", Start: 2, Count: 3},
			{Name: "f", Start: 5, Count: 4},
			{Name: "dup", Start: 9, Count: 3},
		},
		Line: &dwarfline.Table{Rows: []dwarfline.Row{
			{Addr: 1, Line: 1, Col: 1},
			{Addr: 3, Line: 2, Col: 1},
			{Addr: 3, Line: 2, Col: 5},
			{Addr: 6, Line: 1, Col: 1},
			{Addr: 7, Line: 3, Col: 1},
			{Addr: 8, Line: 2, Col: 5},
		}},
	}
	br := bridge.Build(obj)
	for _, name := range []string{"pre", "dup", "f"} {
		fb, ok := br.Func(name)
		if !ok {
			t.Fatalf("no bridge for %s", name)
		}
		want, _ := obj.LookupSym(name)
		if name == "dup" {
			want = &obj.Syms[3]
		}
		if fb.Sym != want {
			t.Errorf("%s: bridge of the symbol at %d, want the one at %d", name, fb.Sym.Start, want.Start)
		}
		sameSites(t, name, fb, lookupBridge(obj, want))
	}
	obj.Line = nil
	fb, _ := bridge.Build(obj).Func("f")
	sameSites(t, "f without a line table", fb, lookupBridge(obj, &obj.Syms[2]))
}
