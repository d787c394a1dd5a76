// Command mira-bench regenerates the paper's evaluation tables and
// figures (Sec. IV) as report suites and emits them in any report
// encoding.
//
// Usage:
//
//	mira-bench -suite name[,name...] | -all | -list
//	           [-format table|json|csv|markdown]
//	           [-scaled] [-paper-sizes] [-j n] [-arch name|file]
//	mira-bench -serve-stats http://host:7319
//	mira-bench -compare [-threshold pct] [-normalize] OLD.json NEW.json
//	mira-bench -load -targets URL[,URL...] [-rps r] [-c n] [-duration d]
//	           [-mix interactive:bulk]
//
// -load drives a weighted mix of interactive (/query) and bulk
// (/sweep) traffic against one or more running mira-serve replicas —
// closed loop by default (fixed workers measure capacity), open loop
// with -rps (fixed arrival rate measures behavior at an offered load)
// — and prints per-class outcome counts with p50/p95/p99 latencies.
// Workload keys are discovered from GET /workloads, so no source is
// uploaded.
//
// -compare reads two `go test -bench -json` baselines (BENCH_*.json),
// pairs the benchmarks they share, and exits nonzero when one regresses
// beyond -threshold percent (default 15). -normalize divides ratios by
// the shared-set median so baselines from differently fast machines
// compare relatively; benchmarks under 100µs/op are reported but never
// gate (noise). CI runs this against the committed baseline.
//
// Every experiment is a named report suite (internal/experiments over
// internal/report), selected by -suite or -all; -list prints each
// suite's name and title (table_ii also produces Fig. 6). The engine
// and the signal context are injected explicitly, -j bounds the worker
// pool (0 = GOMAXPROCS, 1 = serial), and ^C cancels a long
// regeneration at the next size boundary.
// -format selects the encoding: "table" is the paper's ASCII style
// (with per-suite banners); json/csv/markdown emit machine-readable
// artifacts with no banners, so output can pipe straight into a file.
// Selecting several suites with -format json emits one valid JSON
// document: a single report object for one suite, an array of report
// objects otherwise.
//
// Dynamic (VM) runs default to the paper-faithful sizes (minutes of VM
// time for -all); -scaled switches to the proportionally scaled
// configuration that finishes in seconds. -paper-sizes additionally
// evaluates the static model at the paper's full problem sizes (cheap:
// the model is closed-form).
//
// -serve-stats scrapes a running mira-serve daemon's /metrics endpoint,
// lint-parses the OpenMetrics exposition, and prints the cache and
// latency counters in a digestible form (hit ratios, mean per-stage
// latency).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"mira/internal/arch"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/expr"
	"mira/internal/obs"
	"mira/internal/report"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the selected mode and
// writes its output to stdout. It returns the exit code: 0 on success,
// 1 on a failed run (or a -compare regression), 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mira-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	suiteList := fs.String("suite", "", "comma-separated report suites to run (see -list)")
	list := fs.Bool("list", false, "list the named suites and exit")
	all := fs.Bool("all", false, "run every named suite")
	format := fs.String("format", "table", "output encoding: table, json, csv, markdown")
	scaled := fs.Bool("scaled", false, "run dynamic columns at the scaled (seconds-fast) sizes")
	paperSizes := fs.Bool("paper-sizes", false, "also evaluate the static model at the paper's full sizes")
	jobs := fs.Int("j", 0, "analysis-engine workers (0 = GOMAXPROCS, 1 = serial)")
	archName := fs.String("arch", "", "architecture description the suites run on: a registered name or a JSON description file (default generic)")
	serveStats := fs.String("serve-stats", "", "scrape and summarize a running mira-serve daemon (base URL)")
	compare := fs.Bool("compare", false, "compare two `go test -bench -json` baselines (args: OLD.json NEW.json)")
	threshold := fs.Float64("threshold", 15, "regression threshold for -compare, in percent")
	normalize := fs.Bool("normalize", false, "normalize -compare ratios by the shared-set median (cross-machine baselines)")
	load := fs.Bool("load", false, "generate load against running mira-serve replicas (-targets)")
	targets := fs.String("targets", "", "comma-separated replica base URLs for -load")
	rps := fs.Float64("rps", 0, "-load target arrival rate in req/s (0 = closed loop)")
	concurrency := fs.Int("c", 16, "-load worker count")
	duration := fs.Duration("duration", 10*time.Second, "-load run duration")
	mix := fs.String("mix", "90:10", "-load interactive:bulk weight mix")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: mira-bench -compare [-threshold pct] [-normalize] OLD.json NEW.json")
			return 2
		}
		regressions, err := runCompare(stdout, fs.Arg(0), fs.Arg(1), *threshold, *normalize)
		if err != nil {
			fmt.Fprintf(stderr, "mira-bench: compare: %v\n", err)
			return 2
		}
		if regressions > 0 {
			return 1
		}
		return 0
	}

	if *serveStats != "" {
		if err := printServeStats(stdout, *serveStats); err != nil {
			fmt.Fprintf(stderr, "mira-bench: serve-stats: %v\n", err)
			return 1
		}
		return 0
	}

	if *load {
		var bases []string
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				bases = append(bases, strings.TrimSuffix(t, "/"))
			}
		}
		if len(bases) == 0 {
			fmt.Fprintln(stderr, "usage: mira-bench -load -targets URL[,URL...] [-rps r] [-c n] [-duration d] [-mix i:b]")
			return 2
		}
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runLoad(ctx, stdout, bases, *rps, *concurrency, *duration, *mix); err != nil {
			fmt.Fprintf(stderr, "mira-bench: load: %v\n", err)
			return 1
		}
		return 0
	}

	cfg := experiments.PaperConfig()
	if *scaled {
		cfg = experiments.ScaledConfig()
	}
	if *list {
		for _, s := range experiments.Suites(cfg) {
			fmt.Fprintf(stdout, "%-12s %s\n", s.Name, s.Title)
		}
		return 0
	}

	enc, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(stderr, "mira-bench: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	d, err := arch.Resolve(*archName)
	if err != nil {
		fmt.Fprintf(stderr, "mira-bench: %v\n", err)
		return 2
	}
	eng := engine.New(engine.Options{Workers: *jobs, Core: core.Options{Arch: d}})
	runner := report.NewRunner(eng)

	banners := enc == report.FormatTable
	if *paperSizes && !banners {
		// The paper-size static extras are free-form lines that would
		// corrupt a machine-readable stream; refuse rather than
		// silently drop an explicitly requested evaluation.
		fmt.Fprintln(stderr, "mira-bench: -paper-sizes requires -format table")
		return 2
	}
	names, err := selectSuites(cfg, *suiteList, *all)
	if err != nil {
		fmt.Fprintf(stderr, "mira-bench: %v\n", err)
		return 2
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "nothing selected; use -suite or -all (see -list)")
		return 2
	}
	suites := experiments.SuiteMap(cfg)
	// JSON output must stay one valid document even across -all: the
	// suite reports collect into a single top-level array instead of
	// concatenated objects no parser would accept.
	var jsonReports []*report.Report
	for i, name := range names {
		s := suites[name]
		if banners {
			fmt.Fprintf(stdout, "==== %s ====\n", s.Title)
		}
		rep, err := runner.Run(ctx, s)
		if err != nil {
			fmt.Fprintf(stderr, "mira-bench: %s: %v\n", name, err)
			return 1
		}
		switch {
		case enc == report.FormatJSON:
			jsonReports = append(jsonReports, rep)
		default:
			if !banners && i > 0 {
				fmt.Fprintln(stdout)
			}
			if err := rep.Encode(stdout, enc); err != nil {
				fmt.Fprintf(stderr, "mira-bench: %s: %v\n", name, err)
				return 1
			}
		}
		if banners {
			if name == "table_iii" && *paperSizes {
				if err := paperSizeLines(ctx, stdout, runner, "stream"); err != nil {
					fmt.Fprintf(stderr, "mira-bench: %v\n", err)
					return 1
				}
			}
			if name == "table_iv" && *paperSizes {
				if err := paperSizeLines(ctx, stdout, runner, "dgemm"); err != nil {
					fmt.Fprintf(stderr, "mira-bench: %v\n", err)
					return 1
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	if enc == report.FormatJSON {
		var err error
		if len(jsonReports) == 1 {
			err = jsonReports[0].EncodeJSON(stdout)
		} else {
			err = json.NewEncoder(stdout).Encode(jsonReports)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mira-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// selectSuites maps the -suite list (or -all) to suite names, in the
// paper's presentation order. Unknown names error here, before any suite
// runs — a typo must fail fast, not after minutes of VM work have
// streamed.
func selectSuites(cfg experiments.SuiteConfig, suiteList string, all bool) ([]string, error) {
	known := experiments.SuiteNames(cfg)
	want := map[string]bool{}
	for _, n := range known {
		want[n] = false
	}
	for _, n := range strings.Split(suiteList, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, ok := want[n]; !ok {
			return nil, fmt.Errorf("unknown suite %q (see -list)", n)
		}
		want[n] = true
	}
	var out []string
	for _, n := range known {
		if all || want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// paperSizeLines writes the static-only evaluations at the paper's full
// problem sizes (closed-form, instant) with the paper's reference
// values.
func paperSizeLines(ctx context.Context, w io.Writer, runner *report.Runner, workload string) error {
	a, err := runner.Analyze(ctx, report.WorkloadRef{Name: workload})
	if err != nil {
		return err
	}
	fpi := func(fn string, env map[string]int64) (float64, error) {
		res := a.RunOne(ctx, engine.Query{Fn: fn, Env: expr.EnvFromInts(env), Kind: engine.KindStatic})
		if res.Err != nil {
			return 0, res.Err
		}
		return float64(res.Metrics.FPI()), nil
	}
	switch workload {
	case "stream":
		for _, n := range []int64{2_000_000, 50_000_000, 100_000_000} {
			static, err := fpi("stream", map[string]int64{"n": n})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "static-only at paper size %-12d Mira=%.4g (paper Mira: 8.20E7 / 4.100E9 / 2.050E10)\n",
				n, static)
		}
	case "dgemm":
		for _, n := range []int64{256, 512, 1024} {
			static, err := fpi("dgemm_bench", map[string]int64{"n": n, "nrep": 30})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "static-only at paper size %-6d (nrep=30) Mira=%.5g (paper Mira: 1.0125E9 / 8.0769E9 / 6.4519E10)\n",
				n, static)
		}
	}
	return nil
}

// printServeStats scrapes base's /metrics, lint-parses the exposition,
// and prints a cache/latency digest followed by the raw samples.
func printServeStats(w io.Writer, base string) error {
	url := strings.TrimSuffix(base, "/") + "/metrics"
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	exp, err := obs.Parse(string(body))
	if err != nil {
		return fmt.Errorf("exposition failed OpenMetrics lint: %w", err)
	}

	ratio := func(hit, miss string) string {
		h, m := exp.Value(hit), exp.Value(miss)
		if h+m == 0 {
			return "n/a (no traffic)"
		}
		return fmt.Sprintf("%.1f%% (%g hits / %g misses)", 100*h/(h+m), h, m)
	}
	meanMs := func(name string) string {
		count := exp.Value(name + "_count")
		if count == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.3f ms over %g calls", 1e3*exp.Value(name+"_sum")/count, count)
	}
	fmt.Fprintf(w, "mira-serve stats from %s\n\n", url)
	fmt.Fprintf(w, "  live pipeline cache   %s\n", ratio("mira_pipeline_cache_hits_total", "mira_pipeline_cache_misses_total"))
	fmt.Fprintf(w, "  persistent store      %s\n", ratio("mira_store_hits_total", "mira_store_misses_total"))
	fmt.Fprintf(w, "  incremental reuse     %s\n", ratio("mira_incremental_hits_total", "mira_incremental_misses_total"))
	fmt.Fprintf(w, "  eval memo             %s\n", ratio("mira_eval_memo_hits_total", "mira_eval_memo_misses_total"))
	fmt.Fprintf(w, "  analyze latency       %s\n", meanMs("mira_analyze_seconds"))
	fmt.Fprintf(w, "  eval latency          %s\n", meanMs("mira_eval_seconds"))
	fmt.Fprintf(w, "  report latency        %s\n", meanMs("mira_report_seconds"))
	fmt.Fprintf(w, "  store errors          %g\n", exp.Value("mira_store_errors_total"))
	fmt.Fprintf(w, "  in-flight analyses    %g\n", exp.Value("mira_analyses_inflight"))
	fmt.Fprintf(w, "  resident analyses     %g\n", exp.Value("mira_resident_analyses"))
	fmt.Fprintf(w, "  function memo cells   %g\n", exp.Value("mira_function_memo_entries"))
	fmt.Fprintf(w, "  memo entries          %g\n", exp.Value("mira_eval_memo_entries"))

	fmt.Fprintf(w, "\nraw samples:\n")
	names := make([]string, 0, len(exp.Samples))
	for name := range exp.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %g\n", name, exp.Samples[name])
	}
	return nil
}
