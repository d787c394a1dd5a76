// Command mira runs the static analysis pipeline on a MiniC source file:
// it generates the parametric performance model and either evaluates it
// for given parameter values or emits artifacts (the Python model, dot
// graphs of the source/binary ASTs, a disassembly listing).
//
// Usage:
//
//	mira [flags] file.c
//
//	-fn name        function to evaluate/inspect (default: main)
//	-args k=v,...   integer parameter bindings for evaluation
//	-emit kind      python | dot-src | dot-bin | asm | model (default model)
//	-arch name      a registered machine (arya, frankenstein, generic,
//	                graviton2, graviton3, icelake, knl, skylake, volta,
//	                zen2) or a JSON description file
//	-lenient        downgrade unanalyzable branches to warnings
//	-no-opt         compile without optimizations
//
// Examples:
//
//	mira -fn stream -args n=2000000 stream.c
//	mira -fn cg_solve -emit python minife.c
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
	fn := flag.String("fn", "main", "function to evaluate or inspect")
	args := flag.String("args", "", "comma-separated integer parameter bindings, e.g. n=1000,m=4")
	emit := flag.String("emit", "model", "artifact: model | python | dot-src | dot-bin | asm")
	archName := flag.String("arch", "generic", "architecture description: a registered name (arya, skylake, ...) or a JSON description file")
	lenient := flag.Bool("lenient", false, "treat unanalyzable branches as always taken")
	noOpt := flag.Bool("no-opt", false, "compile without optimizations")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mira [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	res, err := mira.Analyze(path, string(src), mira.Options{
		Unoptimized: *noOpt,
		Lenient:     *lenient,
		Arch:        *archName,
	})
	if err != nil {
		fatal(err)
	}
	for _, w := range res.Warnings() {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}

	switch *emit {
	case "python":
		fmt.Print(res.PythonModel())
	case "dot-src":
		fmt.Print(res.SourceDot())
	case "dot-bin":
		out, err := res.BinaryDot(*fn)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "asm":
		out, err := res.Disassembly(*fn)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "model":
		if err := writeModel(os.Stdout, res, *fn, *args); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -emit kind %q", *emit))
	}
}

// writeModel prints fn's static metrics and Table II categories under
// the bindings args. Categories are count-descending with a name
// tiebreak, so tied rows print in the same order on every run.
func writeModel(w io.Writer, res *mira.Result, fn, args string) error {
	env, err := parseArgs(args)
	if err != nil {
		return err
	}
	out := res.Run(context.Background(), []mira.Query{
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mira:", err)
	os.Exit(1)
}
