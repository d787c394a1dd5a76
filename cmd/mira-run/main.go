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
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mira"
	"mira/internal/arch"
	"mira/internal/dynamic"
	"mira/internal/vm"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, analyzes every file, runs
// each on the VM and prints its profile to stdout. It returns the exit
// code: 0 when every file ran, 1 when any failed, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mira-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fn := fs.String("fn", "main", "entry function")
	vmArgList := fs.String("args", "", "comma-separated arguments (ints, or f:<value> for doubles)")
	archName := fs.String("arch", "frankenstein", "architecture description: a registered name or a JSON description file")
	maxSteps := fs.Uint64("max-steps", 0, "instruction budget (0 = default)")
	workers := fs.Int("j", 0, "analysis workers for batch mode (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: mira-run [flags] file.c [file2.c ...]")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mira-run:", err)
		return 1
	}
	vmArgs, err := parseArgs(*vmArgList)
	if err != nil {
		return fail(err)
	}
	d, err := arch.Resolve(*archName)
	if err != nil {
		return fail(err)
	}
	eng, err := mira.NewEngine(*workers, mira.Options{Lenient: true, Arch: *archName})
	if err != nil {
		return fail(err)
	}

	// Read errors are per-file failures like any other: they must not
	// abort the rest of the batch, so unreadable files are skipped at
	// analysis time and reported in file order below.
	paths := fs.Args()
	results := make([]mira.BatchResult, len(paths))
	var jobs []mira.BatchJob
	jobIdx := make([]int, 0, len(paths))
	for i, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			results[i] = mira.BatchResult{Job: mira.BatchJob{Name: path}, Err: err}
			continue
		}
		jobs = append(jobs, mira.BatchJob{Name: path, Source: string(src)})
		jobIdx = append(jobIdx, i)
	}
	// The signal context only governs the analysis phase; it is released
	// as soon as the batch returns so that ^C during VM execution keeps
	// its default kill-the-process behavior instead of being swallowed.
	actx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	for k, r := range eng.AnalyzeAllCtx(actx, jobs) {
		results[jobIdx[k]] = r
	}
	stop()

	batch := len(results) > 1
	failed := 0
	for _, r := range results {
		if batch {
			fmt.Fprintf(stdout, "==== %s ====\n", r.Job.Name)
		}
		err := r.Err
		if err == nil {
			err = runOne(stdout, r.Result, d, *fn, vmArgs, *maxSteps)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mira-run: %s: %v\n", r.Job.Name, err)
			failed++
		}
		if batch {
			fmt.Fprintln(stdout)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runOne executes fn on res's binary and writes its return value,
// retired-instruction count and TAU-style profile to w.
func runOne(w io.Writer, res *mira.Result, d *arch.Description, fn string, vmArgs []vm.Value, maxSteps uint64) error {
	m := res.Machine()
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	ret, err := m.Run(fn, vmArgs...)
	if err != nil {
		return err
	}
	if ret.IsFloat {
		fmt.Fprintf(w, "%s returned %g\n", fn, ret.F)
	} else {
		fmt.Fprintf(w, "%s returned %d\n", fn, ret.I)
	}
	fmt.Fprintf(w, "instructions retired: %d\n\n", m.Steps())
	fmt.Fprint(w, dynamic.New(m, d).Report().String())
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
