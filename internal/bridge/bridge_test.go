package bridge_test

import (
	"testing"

	"mira/internal/bridge"
	"mira/internal/cc"
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
	if body.ByOpcode[ir.ADDSD] != 1 {
		t.Errorf("ADDSD at body = %d, want 1", body.ByOpcode[ir.ADDSD])
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
	if cond == nil || cond.ByOpcode[ir.CMP] != 1 {
		t.Errorf("cond site = %+v", cond)
	}
	// The post site holds the increment and the back jump.
	post := fb.At(5, 21)
	if post == nil || post.ByOpcode[ir.INC] != 1 || post.ByOpcode[ir.JMP] != 1 {
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
