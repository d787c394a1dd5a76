// Command mira-serve is a long-running HTTP/JSON analysis service over
// the Mira pipeline: POST MiniC source, get back a content key and the
// parametric model summary, then evaluate it by key through /query,
// /sweep, or /report, with every layer of caching the engine has —
// singleflight compile dedup, memoized (function, env) evaluation, and
// (with -cache-dir) a content-addressed on-disk store of per-function
// object fragments that survives restarts: a rebooted daemon decodes
// each stored function instead of recompiling it.
//
// Endpoints:
//
//	POST /analyze   {"name","source"} -> content key + model summary
//	POST /query     {"key"|"source","queries":[{"fn","env","kind"[,"arch"]}]}
//	                -> batched per-query results (kinds: static,
//	                static_exclusive, categories, fine_categories,
//	                roofline, pbound); one evaluation is a one-cell batch
//	POST /sweep     {"key"|"source","fn","kind","axes"|"points"[,"base","archs"]}
//	                -> a parameter grid through the compiled model,
//	                streamed with per-point errors
//	POST /report    {"suite":name} | {"spec":{...}} [+"format"] -> a typed
//	                report (the paper's tables/figures by name, or an
//	                inline workload x grid x kind spec) as JSON, CSV,
//	                ASCII table, or Markdown
//	GET  /workloads embedded workload registry with content keys (query
//	                by key without uploading source) + named suites
//	GET  /archs     architecture registry: builtins plus -arch-dir loads,
//	                each with its content key
//	GET  /metrics   OpenMetrics text exposition (cache, latency, HTTP series)
//	GET  /livez     liveness: the process is up
//	GET  /readyz    readiness: 503 while draining or interactive-saturated
//
// Every handler threads the request context into the engine, so a
// client dropping its connection aborts the evaluation it abandoned.
// SIGINT/SIGTERM drain in-flight requests (bounded by -drain) before
// the process exits.
//
// Every daemon has a front door: per-client rate limiting (-rate/-burst)
// plus QoS admission control (-interactive-slots/-bulk-slots) that sheds
// excess bulk work with Retry-After instead of queueing it into an OOM.
//
// Cluster mode (-peers + -self) turns the daemon into one replica of a
// sharded deployment: a consistent-hash ring over content keys decides
// which replica owns each analyzed program, interactive requests are
// forwarded to their key's owner for cache locality, and cache
// artifacts read through to the owner and replicate back write-behind.
// The peer protocol is served under /cluster/. A flag that does nothing
// without another one (-burst without -rate, -self without -peers)
// fails startup rather than being ignored.
//
// Named report suites run at the scaled sizes, so a POST /report
// finishes within the server's write timeout; mira-bench regenerates
// the paper's tables at full size.
//
// Usage:
//
//	mira-serve [-addr :7319] [-cache-dir DIR] [-j n] [-max-resident n]
//	           [-arch name|file] [-arch-dir DIR] [-lenient] [-no-opt] [-drain 30s]
//	           [-peers URL,URL,... -self URL]
//	           [-rate r -burst b] [-interactive-slots n] [-bulk-slots n]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mira/internal/arch"
	"mira/internal/cachestore"
	"mira/internal/cluster"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/experiments"
	"mira/internal/obs"
)

// serveConfig carries every flag into run.
type serveConfig struct {
	addr        string
	cacheDir    string
	jobs        int
	maxResident int
	archName    string
	archDir     string
	lenient     bool
	noOpt       bool
	drain       time.Duration

	// Cluster mode.
	peers string
	self  string

	// Front door.
	rate             float64
	burst            float64
	interactiveSlots int
	bulkSlots        int
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", ":7319", "listen address")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "content-addressed artifact cache directory (empty = in-memory only)")
	flag.IntVar(&cfg.jobs, "j", 0, "analysis workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.maxResident, "max-resident", 4096, "live-cache entries kept resident (0 = unlimited; untrusted traffic needs a bound)")
	flag.StringVar(&cfg.archName, "arch", "", "architecture description: a registered name (see GET /archs) or a JSON description file")
	flag.StringVar(&cfg.archDir, "arch-dir", "", "directory of *.json architecture descriptions registered alongside the builtins")
	flag.BoolVar(&cfg.lenient, "lenient", false, "downgrade unanalyzable branches to warnings")
	flag.BoolVar(&cfg.noOpt, "no-opt", false, "compile without optimizations")
	flag.DurationVar(&cfg.drain, "drain", 30*time.Second, "how long shutdown waits for in-flight requests to finish")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated replica base URLs (cluster mode; must include -self)")
	flag.StringVar(&cfg.self, "self", "", "this replica's advertised base URL (required with -peers)")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-client sustained request rate in req/s (0 = unlimited)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-client burst depth (0 = 2x rate; needs -rate)")
	flag.IntVar(&cfg.interactiveSlots, "interactive-slots", 0, "concurrent interactive (query/analyze) requests admitted (0 = 256)")
	flag.IntVar(&cfg.bulkSlots, "bulk-slots", 0, "concurrent bulk (sweep/report) requests admitted; excess is shed with Retry-After (0 = 4)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mira-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg serveConfig) error {
	if err := cfg.checkFlagPairs(); err != nil {
		return err
	}
	// The architecture registry: every builtin description plus any
	// -arch-dir loads, fixed before the engine exists (the registry is
	// immutable once serving so GET /archs, /query, and /report agree).
	// A bad description file fails startup instead of surfacing as
	// per-request lookup errors later.
	registry := arch.NewRegistry()
	if cfg.archDir != "" {
		n, err := registry.LoadDir(cfg.archDir)
		if err != nil {
			return err
		}
		log.Printf("mira-serve: loaded %d architecture description(s) from %s", n, cfg.archDir)
	}
	a, err := registry.Resolve(cfg.archName)
	if err != nil {
		return err
	}
	// The replica's own store: on-disk when configured, else in-memory.
	// Standalone daemons historically ran with no store at all when
	// -cache-dir was absent (the live cache suffices); cluster mode
	// always needs one, since it is what sibling fetches serve from.
	var store engine.CacheStore
	if cfg.cacheDir != "" {
		disk, err := cachestore.Open(cfg.cacheDir)
		if err != nil {
			return err
		}
		store = disk
		log.Printf("mira-serve: artifact cache at %s", disk.Dir())
	}
	reg := obs.NewRegistry()

	var node *cluster.Node
	if cfg.peers != "" {
		if cfg.self == "" {
			return fmt.Errorf("-peers requires -self (this replica's base URL as it appears in the peer list)")
		}
		if store == nil {
			store = engine.NewMemoryStore()
		}
		node, err = cluster.NewNode(cluster.NodeOptions{
			Self:  strings.TrimRight(cfg.self, "/"),
			Peers: cluster.NormalizePeers(cfg.peers),
			Local: store,
			Obs:   reg,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		store = node.Store
		log.Printf("mira-serve: cluster mode, self=%s peers=%v", node.Self, node.Ring.Peers())
	}
	eng := engine.New(engine.Options{
		Workers:     cfg.jobs,
		Core:        core.Options{Arch: a, Lenient: cfg.lenient, DisableOpt: cfg.noOpt},
		Store:       store,
		MaxResident: cfg.maxResident,
		Obs:         reg,
		Registry:    registry,
	})
	s := newServer(eng, reg, experiments.SuiteMap(experiments.ScaledConfig()), node,
		AdmissionOptions{InteractiveSlots: cfg.interactiveSlots, BulkSlots: cfg.bulkSlots},
		RateLimiterOptions{Rate: cfg.rate, Burst: cfg.burst})
	// Full timeout set: a resident daemon must shrug off slow-body
	// clients, not accumulate their goroutines.
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("mira-serve: listening on %s (%d workers)", ln.Addr(), eng.Workers())
	return serveUntilDone(ctx, srv, ln, cfg.drain, func() { s.draining.Store(true) })
}

// checkFlagPairs rejects a flag set without the flag it depends on:
// the daemon would otherwise ignore it silently.
func (cfg serveConfig) checkFlagPairs() error {
	for _, f := range []struct {
		name, needs string
		set, has    bool
	}{
		{"-burst", "-rate", cfg.burst != 0, cfg.rate > 0},
		{"-self", "-peers", cfg.self != "", cfg.peers != ""},
	} {
		if f.set && !f.has {
			return fmt.Errorf("%s takes effect only with %s: set %s, or drop %s", f.name, f.needs, f.needs, f.name)
		}
	}
	return nil
}

// serveUntilDone serves on ln until the server fails or ctx ends
// (SIGINT/SIGTERM in production). On a signal it calls markDraining —
// /readyz starts answering 503 so routed traffic goes elsewhere — then
// stops accepting new connections and drains in-flight requests:
// analyses finish and their responses are written, instead of dying
// mid-write, for at most drain, then hard-closes whatever remains.
func serveUntilDone(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, markDraining func()) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		// Serve never returns nil; reaching here means the listener died.
		return err
	case <-ctx.Done():
	}
	if markDraining != nil {
		markDraining()
	}
	log.Printf("mira-serve: shutdown signal; draining in-flight requests (up to %s)", drain)
	//lint:ignore mira/ctxflow the parent ctx is already done here; the drain needs a fresh timeout
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		_ = srv.Close() // drain failed; force-close, the Shutdown error wins
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("mira-serve: drained, exiting")
	return nil
}
