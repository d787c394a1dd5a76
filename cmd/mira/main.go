// Command mira runs the static analysis pipeline on a MiniC source file:
// it generates the parametric performance model and either evaluates it
// for given parameter values or emits artifacts (the Python model, dot
// graphs of the source/binary ASTs, a disassembly listing, the decoded
// line table).
//
// Usage:
//
//	mira [flags] file.c
//
//	-fn name        function to evaluate/inspect (default: main); with
//	                -fn '', asm and dot-bin print every function
//	-args k=v,...   integer parameter bindings for evaluation
//	-emit kind      model | python | dot-src | dot-bin | asm | lines
//	                (default model)
//	-arch name      a registered machine (arya, frankenstein, generic,
//	                graviton2, graviton3, icelake, knl, skylake, volta,
//	                zen2) or a JSON description file
//	-lenient        downgrade unanalyzable branches to warnings
//	-no-opt         compile without optimizations
//
// -emit asm prints an objdump-style listing with per-instruction source
// positions from the line table; -emit lines prints that table for the
// whole object. With an empty -fn, asm and dot-bin cover every symbol
// in object order, each listing followed by a blank line.
//
// Examples:
//
//	mira -fn stream -args n=2000000 stream.c
//	mira -fn cg_solve -emit python minife.c
//	mira -fn '' -emit asm minife.c
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"mira"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, analyzes the file and
// writes the requested artifact to stdout. It returns the exit code:
// 0 on success, 1 on a failed analysis or emit, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mira", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fn := fs.String("fn", "main", "function to evaluate or inspect ('' = every function, for asm and dot-bin)")
	bindings := fs.String("args", "", "comma-separated integer parameter bindings, e.g. n=1000,m=4")
	emit := fs.String("emit", "model", "artifact: model | python | dot-src | dot-bin | asm | lines")
	archName := fs.String("arch", "generic", "architecture description: a registered name (arya, skylake, ...) or a JSON description file")
	lenient := fs.Bool("lenient", false, "treat unanalyzable branches as always taken")
	noOpt := fs.Bool("no-opt", false, "compile without optimizations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mira [flags] file.c")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mira:", err)
		return 1
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	res, err := mira.Analyze(path, string(src), mira.Options{
		Unoptimized: *noOpt,
		Lenient:     *lenient,
		Arch:        *archName,
	})
	if err != nil {
		return fail(err)
	}
	for _, w := range res.Warnings() {
		fmt.Fprintln(stderr, "warning:", w)
	}

	switch *emit {
	case "model":
		err = writeModel(ctx, stdout, res, *fn, *bindings)
	case "python":
		fmt.Fprint(stdout, res.PythonModel())
	case "dot-src":
		fmt.Fprint(stdout, res.SourceDot())
	case "dot-bin":
		err = writeEach(stdout, res, *fn, res.BinaryDot, "")
	case "asm":
		err = writeEach(stdout, res, *fn, res.Disassembly, "\n")
	case "lines":
		rows := res.Pipeline().Obj.Line.Rows
		fmt.Fprintf(stdout, "line table (%d rows):\n", len(rows))
		for _, r := range rows {
			fmt.Fprintf(stdout, "  addr %6d -> %d:%d\n", r.Addr, r.Line, r.Col)
		}
	default:
		err = fmt.Errorf("unknown -emit kind %q", *emit)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// writeEach writes render(fn) or, when fn is empty, render of every
// symbol in object order, each followed by sep.
func writeEach(w io.Writer, res *mira.Result, fn string, render func(string) (string, error), sep string) error {
	if fn != "" {
		out, err := render(fn)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	}
	for _, sym := range res.Pipeline().Obj.Syms {
		out, err := render(sym.Name)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out, sep)
	}
	return nil
}

// writeModel prints fn's static metrics and Table II categories under
// the bindings args. Categories are count-descending with a name
// tiebreak, so tied rows print in the same order on every run.
func writeModel(ctx context.Context, w io.Writer, res *mira.Result, fn, args string) error {
	env, err := parseArgs(args)
	if err != nil {
		return err
	}
	out := res.Run(ctx, []mira.Query{
		{Fn: fn, Env: env, Kind: mira.KindStatic},
		{Fn: fn, Env: env, Kind: mira.KindCategories},
	})
	for _, r := range out {
		if r.Err != nil {
			return r.Err
		}
	}
	met, cats := out[0].Metrics, out[1].Categories
	fmt.Fprintf(w, "Static metrics for %s (%s):\n", fn, bindingString(args))
	fmt.Fprintf(w, "  %-40s %d\n", "Total instructions", met.Instrs)
	fmt.Fprintf(w, "  %-40s %d\n", "Floating-point instructions (FPI)", met.FPI())
	fmt.Fprintf(w, "  %-40s %d\n", "Floating-point operations", met.Flops)
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool {
		if ci, cj := cats[names[i]], cats[names[j]]; ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	for _, c := range names {
		fmt.Fprintf(w, "  %-40s %d\n", c, cats[c])
	}
	return nil
}

func parseArgs(s string) (mira.Env, error) {
	vals := map[string]int64{}
	if s == "" {
		return mira.IntArgs(vals), nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad binding %q (want name=value)", kv)
		}
		name := parts[0]
		if name == "" {
			return nil, fmt.Errorf("empty parameter name in %q", kv)
		}
		if _, dup := vals[name]; dup {
			return nil, fmt.Errorf("parameter %q bound twice", name)
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", kv, err)
		}
		vals[name] = v
	}
	return mira.IntArgs(vals), nil
}

func bindingString(s string) string {
	if s == "" {
		return "no parameters"
	}
	return s
}
