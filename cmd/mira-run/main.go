// Command mira-run executes MiniC programs on the virtual machine with
// TAU-style per-function profiling — the dynamic-measurement side of the
// validation experiments.
//
// Usage:
//
//	mira-run [flags] file.c [file2.c ...]
//
//	-fn name        entry function (default main)
//	-args v,...     entry arguments: integers, or f:1.5 for doubles
//	-arch name      architecture description (FP counters only where real)
//	-max-steps n    instruction budget
//	-j n            analysis workers for batch mode (0 = GOMAXPROCS)
//	-watch          re-analyze on change, printing only changed functions
//	-interval d     poll interval for -watch (default 500ms)
//
// With -watch, mira-run polls the files (mtime + size) and re-analyzes
// through the engine's function-granular incremental cache whenever one
// changes, printing one row per *recompiled* function — unchanged
// functions are reused from the function memo and stay silent. Exit with
// SIGINT/SIGTERM.
//
// With multiple files, mira-run runs in batch mode: every file is
// analyzed concurrently through the engine's worker pool (identical
// sources share one compile via the content-hash cache), then each
// program is executed in order. Per-file failures are reported without
// aborting the rest of the batch. Interrupting a batch (SIGINT/SIGTERM)
// cancels the analyses still queued; files already analyzed report
// normally, the rest report the cancellation.
//
// Array/pointer arguments cannot be staged from the command line; use the
// Go API (see examples/) or the benches for workloads that need them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mira"
	"mira/internal/arch"
	"mira/internal/dynamic"
	"mira/internal/vm"
)

func main() {
	fn := flag.String("fn", "main", "entry function")
	args := flag.String("args", "", "comma-separated arguments (ints, or f:<value> for doubles)")
	archName := flag.String("arch", "frankenstein", "architecture description: a registered name or a JSON description file")
	maxSteps := flag.Uint64("max-steps", 0, "instruction budget (0 = default)")
	workers := flag.Int("j", 0, "analysis workers for batch mode (0 = GOMAXPROCS)")
	watch := flag.Bool("watch", false, "re-analyze on change, printing only changed functions")
	interval := flag.Duration("interval", 500*time.Millisecond, "poll interval for -watch")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mira-run [flags] file.c [file2.c ...]")
		os.Exit(2)
	}
	vmArgs, err := parseArgs(*args)
	if err != nil {
		fatal(err)
	}
	d, err := arch.Resolve(*archName)
	if err != nil {
		fatal(err)
	}

	// The signal context only governs the analysis phase; it is released
	// as soon as the batch returns so that ^C during VM execution keeps
	// its default kill-the-process behavior instead of being swallowed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng, err := mira.NewEngine(*workers, mira.Options{Lenient: true, Arch: *archName})
	if err != nil {
		fatal(err)
	}
	if *watch {
		// Watch mode is signal-driven end to end: the loop exits when the
		// context does.
		runWatch(ctx, eng, flag.Args(), *interval)
		return
	}
	// Read errors are per-file failures like any other: they must not
	// abort the rest of the batch, so unreadable files are skipped at
	// analysis time and reported in file order below.
	paths := flag.Args()
	readErrs := make([]error, len(paths))
	var jobs []mira.BatchJob
	jobIdx := make([]int, 0, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			readErrs[i] = err
			continue
		}
		jobs = append(jobs, mira.BatchJob{Name: path, Source: string(src)})
		jobIdx = append(jobIdx, i)
	}
	results := make([]mira.BatchResult, len(paths))
	for i, err := range readErrs {
		results[i] = mira.BatchResult{Job: mira.BatchJob{Name: paths[i]}, Err: err}
	}
	for k, r := range eng.AnalyzeAllCtx(ctx, jobs) {
		results[jobIdx[k]] = r
	}
	stop()

	batch := len(results) > 1
	failed := 0
	for _, r := range results {
		if batch {
			fmt.Printf("==== %s ====\n", r.Job.Name)
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: %s: %v\n", r.Job.Name, r.Err)
			failed++
		} else if err := runOne(r.Result, d, *fn, vmArgs, *maxSteps); err != nil {
			fmt.Fprintf(os.Stderr, "mira-run: %s: %v\n", r.Job.Name, err)
			failed++
		}
		if batch {
			fmt.Println()
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// fileStamp is the poll key of one watched file: re-analysis triggers
// when either the modification time or the size moves.
type fileStamp struct {
	mod  time.Time
	size int64
}

// runWatch polls paths and re-analyzes each through the engine's
// incremental cache whenever its stamp changes, printing one row per
// recompiled function. Reused functions stay silent; a content-identical
// rewrite (touch, editor save with no edit) prints a single "unchanged"
// line because the live content-hash cache absorbs it before any
// pipeline runs.
func runWatch(ctx context.Context, eng *mira.Engine, paths []string, interval time.Duration) {
	last := make(map[string]fileStamp, len(paths))
	for ctx.Err() == nil {
		for _, path := range paths {
			info, err := os.Stat(path)
			if err != nil {
				if _, seen := last[path]; !seen {
					fmt.Fprintf(os.Stderr, "mira-run: %s: %v\n", path, err)
					last[path] = fileStamp{}
				}
				continue
			}
			st := fileStamp{mod: info.ModTime(), size: info.Size()}
			if last[path] == st {
				continue
			}
			last[path] = st
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mira-run: %s: %v\n", path, err)
				continue
			}
			res, err := eng.AnalyzeCtx(ctx, path, string(src))
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				fmt.Fprintf(os.Stderr, "mira-run: %s: %v\n", path, err)
				continue
			}
			printDelta(ctx, path, res)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

// printDelta prints one watch cycle's outcome: only the rows of
// functions the incremental analysis actually recompiled. Closed-form
// functions show their evaluated instruction counts; parametric ones
// list the parameters a later query must bind.
func printDelta(ctx context.Context, path string, res *mira.Result) {
	now := time.Now().Format("15:04:05")
	d := res.Delta()
	if d == nil {
		fmt.Printf("[%s] %s: unchanged\n", now, path)
		return
	}
	fmt.Printf("[%s] %s: %d recompiled, %d reused\n", now, path, len(d.Compiled), len(d.Reused))
	for _, fn := range d.Compiled {
		f := res.Pipeline().Model.Funcs[fn]
		switch {
		case f == nil || f.Extern:
			fmt.Printf("  ~ %s (extern)\n", fn)
		case len(f.FreeParams()) > 0:
			fmt.Printf("  ~ %s (parametric: %s)\n", fn, strings.Join(f.FreeParams(), ", "))
		default:
			r := res.Run(ctx, []mira.Query{{Fn: fn, Kind: mira.KindStatic}})[0]
			if r.Err != nil {
				fmt.Printf("  ~ %s (unevaluated: %v)\n", fn, r.Err)
				continue
			}
			met := r.Metrics
			fmt.Printf("  ~ %s instrs=%d flops=%d fpi=%d\n", fn, met.Instrs, met.Flops, met.FPI())
		}
	}
}

func runOne(res *mira.Result, d *arch.Description, fn string, vmArgs []vm.Value, maxSteps uint64) error {
	m := res.Machine()
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	ret, err := m.Run(fn, vmArgs...)
	if err != nil {
		return err
	}
	if ret.IsFloat {
		fmt.Printf("%s returned %g\n", fn, ret.F)
	} else {
		fmt.Printf("%s returned %d\n", fn, ret.I)
	}
	fmt.Printf("instructions retired: %d\n\n", m.Steps())
	fmt.Print(dynamic.New(m, d).Report().String())
	return nil
}

func parseArgs(s string) ([]vm.Value, error) {
	if s == "" {
		return nil, nil
	}
	var out []vm.Value
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if f, ok := strings.CutPrefix(a, "f:"); ok {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, vm.Float(v))
			continue
		}
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, vm.Int(v))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mira-run:", err)
	os.Exit(1)
}
