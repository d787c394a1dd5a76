// Command perfbench is mira-serve's end-to-end benchmark. It starts one
// replica with its shipped defaults, drives it over loopback HTTP with
// one closed-loop client on one connection, checks every answer, and
// prints one JSON result as its last line.
//
//	perfbench -serve PATH/mira-serve -workload analyze|edit|query|sweep \
//	          -seed N -seconds S -trace 0|1 [-out DIR]
//
// Each round sends a workload's fixed request sequence (roundOps) to a
// fresh daemon, so heap size, GC count and peak RSS at the end of a round
// do not depend on how fast the code under test is. A run makes as many
// identical rounds as fit in -seconds, at least three. Time metrics are
// scaled to the reference speed measured between the round's requests
// (see speed.go); every metric is the median over the rounds. With -trace 1
// one round's seeded requests are also replayed in process through each
// layer's public functions, and the per-layer metrics are printed instead
// of the end-to-end ones. See README.md for the metric and workload
// catalogue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// roundOps fixes each workload's timed operation count per round, whole
// seeded cycles each: 15 analyze cycles, two edit cycles, 150 query
// cycles, three sweep cycles. Each count puts ten or more samples beyond
// its tail percentile (p95, p95, p99.5, p90). tracedOps are the timed ops
// of a traced run's one round. warmOps are the untimed analyze/edit
// requests sent during set-up (query and sweep warm every program and
// target).
var (
	roundOps  = map[string]int{"analyze": 210, "edit": 286, "query": 9600, "sweep": 144}
	tracedOps = map[string]int{"analyze": 112, "edit": 143, "query": 9600, "sweep": 48}
	warmOps   = map[string]int{"analyze": 28, "edit": 28}
)

// minRounds is the fewest rounds an untraced run makes. It starts
// another round while the last one's length still fits in -seconds; how
// many fit depends on the host and the code under test, but every round
// is the same request sequence on a fresh daemon, so the count changes
// only how many values the median is taken over.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	serve    string
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	ops      int
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.serve, "serve", "", "mira-serve binary to benchmark")
	flag.StringVar(&cfg.workload, "workload", "", "analyze, edit, query or sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: rounds start while they fit in it, at least three")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark pass and returns its result; report lines
// go to log.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	if _, ok := roundOps[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want analyze, edit, query or sweep)", cfg.workload)
	}
	if cfg.serve == "" {
		return nil, fmt.Errorf("-serve is required")
	}
	if _, err := os.Stat(cfg.serve); err != nil {
		return nil, err
	}
	n := roundOps[cfg.workload]
	if cfg.trace {
		// The traced run replays every request in two in-process passes;
		// its one round is kept about as short as an untraced run. A
		// query costs microseconds in process, and its layer sum needs
		// every request to average out the machine's scheduling noise.
		n = tracedOps[cfg.workload]
	}
	if cfg.ops > 0 {
		n = cfg.ops
	}
	pl, err := makePlan(cfg.workload, cfg.seed, warmOps[cfg.workload], n)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	perRound := map[string][]float64{}
	var last *phaseResult
	var lastCounters map[string]float64
	budget := time.Duration(max(1, cfg.seconds)) * time.Second
	runStart := time.Now()
	var lastRound time.Duration
	for r := 0; ; r++ {
		if (cfg.trace && r == 1) || (!cfg.trace && r >= minRounds && time.Since(runStart)+lastRound > budget) {
			break
		}
		roundStart := time.Now()
		s, took, err := setup(ctx, cfg.serve, pl)
		if err != nil {
			return nil, err
		}
		ph, err := s.runPhase(ctx, pl.timed)
		if err != nil {
			s.d.stop()
			return nil, err
		}
		counters, bad := premise(pl, ph)
		checked, cerr := s.checkAnswers(ctx)
		s.d.stop()
		if cerr != nil {
			bad = append(bad, "answer check: "+cerr.Error())
		}
		bad = append(bad, s.failures...)
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Correct = res.Correct && len(bad) == 0 && ph.failed == 0
		last, lastCounters = ph, counters

		lat := sortedCopy(ph.lat)
		tailQ := tailPercentile(len(lat))
		lastRound = time.Since(roundStart)
		fmt.Fprintf(log, "workload %s seed %d round %d: %d ops timed (%d failed), %d warm-up, %d primed programs, %d answers re-checked, set-up %.3f s, round %.2f s\n",
			cfg.workload, cfg.seed, r+1, ph.attempted, ph.failed, len(pl.warm), len(pl.progs), checked, took.Seconds(), lastRound.Seconds())
		fmt.Fprintf(log, "latency over %d samples: p50 %.3f ms, tail = p%g %.3f ms, max %.3f ms; deciles", len(lat),
			ms(percentile(lat, 0.5)), tailQ*100, ms(percentile(lat, tailQ)), ms(percentile(lat, 1)))
		for q := 1; q < 10; q++ {
			fmt.Fprintf(log, " %.2f", ms(percentile(lat, float64(q)/10)))
		}
		var inReq time.Duration
		for _, d := range ph.rtt {
			inReq += d
		}
		fmt.Fprintf(log, "; timed phase %.3f s, %.3f s of it in requests\n", ph.wall.Seconds(), inReq.Seconds())
		if pl.workload == "query" {
			fmt.Fprintf(log, "query repeat share (drawn): %.4f of requests\n", pl.repeatShare)
		}
		for _, k := range sortedKeys(counters) {
			fmt.Fprintf(log, "  /metrics %s %g\n", k, counters[k])
		}
		for _, b := range bad {
			fmt.Fprintf(log, "FAIL %s\n", b)
		}
		raw := map[string]float64{
			"setup_s":          took.Seconds(),
			"p50_ms":           ms(percentile(lat, 0.5)),
			"tail_ms":          ms(percentile(lat, tailQ)),
			"throughput_per_s": ph.work / ph.wall.Seconds(),
			"cpu_ms_per_op":    ms(ph.cpu) / float64(ph.attempted),
			"peak_rss_mb":      ph.hwmKiB / 1024,
		}
		speed := refSpeed(ph.ref)
		fmt.Fprintf(log, "round %d: reference unit %.4f ms (median of %d), speed %.4f; measured", r+1, ms(percentile(sortedCopy(ph.ref), 0.5)), len(ph.ref), speed)
		for _, name := range sortedKeys(raw) {
			fmt.Fprintf(log, " %s=%.6g", name, raw[name])
		}
		fmt.Fprintf(log, "; at reference speed")
		for _, name := range sortedKeys(raw) {
			v := raw[name]
			switch name {
			case "throughput_per_s":
				v /= speed
			case "peak_rss_mb":
			default:
				v *= speed
			}
			perRound[name] = append(perRound[name], v)
			fmt.Fprintf(log, " %s=%.6g", name, v)
		}
		fmt.Fprintln(log)
	}
	if !cfg.trace {
		units := map[string]string{"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "throughput_per_s": "1/s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MiB"}
		for name, v := range perRound {
			res.Metrics[name] = metric{median(v), units[name]}
		}
		return res, nil
	}
	tr, err := traced(ctx, pl, last, lastCounters, filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)), log)
	if err != nil {
		return nil, err
	}
	for _, b := range tr.bad {
		fmt.Fprintf(log, "FAIL %s\n", b)
		res.Correct = false
	}
	res.Metrics = tr.metrics
	return res, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
