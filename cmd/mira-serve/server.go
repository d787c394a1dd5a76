package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/arch"
	"mira/internal/cluster"
	"mira/internal/engine"
	"mira/internal/expr"
	"mira/internal/lexer"
	"mira/internal/obs"
	"mira/internal/parser"
	"mira/internal/report"
)

// maxRequestBytes bounds request bodies; analysis inputs are source
// files, not datasets.
const maxRequestBytes = 4 << 20

// maxQueriesPerRequest bounds one /query batch; a paper-scale evaluation
// sweep is a few hundred cells, and anything larger can be split.
const maxQueriesPerRequest = 1024

// writeTimeout is the daemon's http.Server WriteTimeout, and the
// deadline of the bulk handlers' evaluation: once the server would drop
// the response anyway, /sweep and /report stop computing it and free
// their admission slot.
const writeTimeout = 60 * time.Second

// openMetricsContentType is the content type Prometheus negotiates for
// the OpenMetrics text exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// server is the mira-serve HTTP layer over one analysis engine.
type server struct {
	eng    *engine.Engine
	reg    *obs.Registry
	runner *report.Runner
	// suites are the named report suites served by POST /report
	// (typically the paper suites from internal/experiments).
	suites map[string]report.Suite
	// workloads is the GET /workloads payload, computed once: the
	// embedded registry's content keys are fixed for a given engine.
	workloads []workloadInfo
	start     time.Time
	// node is the replica's cluster runtime; nil for a standalone
	// daemon, in which case forwarding is inert.
	node *cluster.Node
	// peerHosts are the ring members' hosts, whose forwarded requests
	// skip the rate limiter (nil on a lone daemon).
	peerHosts map[string]bool
	// admission and limiter are the front door's gates (frontdoor.go).
	admission *Admission
	limiter   *RateLimiter
	// draining flips when shutdown starts; /readyz answers 503 from
	// then on so a cluster front-end routes around the replica while
	// in-flight requests finish.
	draining atomic.Bool
	// writeDeadline bounds /sweep and /report evaluation (writeTimeout).
	writeDeadline time.Duration
	// handler is the assembled middleware chain ServeHTTP delegates to.
	handler http.Handler
	// encoders holds idle *cellEncoder values: /query and /sweep take
	// one per response, so a warm daemon reuses the buffers and key-set
	// caches instead of growing new ones.
	encoders sync.Pool

	reqAnalyze   *obs.Counter
	reqQuery     *obs.Counter
	reqSweep     *obs.Counter
	reqReport    *obs.Counter
	reqWorkloads *obs.Counter
	reqArchs     *obs.Counter
	reqErrors    *obs.Counter
	httpLat      *obs.Summary
}

// newServer wires the handler set. The registry must be the one the
// engine reports into, so /metrics exposes engine, report, and HTTP
// series together. suites are the named reports POST /report serves by
// name (nil means inline specs only). The front door (QoS admission
// sized by adm, per-client rate limiting by rl) wraps the API of every
// daemon. node, when non-nil, turns the daemon into a cluster replica:
// the peer protocol mounts under /cluster/ and interactive requests
// forward to their key's ring owner.
func newServer(eng *engine.Engine, reg *obs.Registry, suites map[string]report.Suite, node *cluster.Node, adm AdmissionOptions, rl RateLimiterOptions) *server {
	s := &server{
		eng:          eng,
		reg:          reg,
		runner:       report.NewRunner(eng).WithObs(reg),
		suites:       suites,
		start:        time.Now(),
		node:         node,
		peerHosts:    peerHosts(node),
		admission:    newAdmission(adm, reg),
		limiter:      newRateLimiter(rl, reg, nil),
		reqAnalyze:   reg.Counter("mira_http_analyze_requests", "POST /analyze requests"),
		reqQuery:     reg.Counter("mira_http_query_requests", "POST /query requests"),
		reqSweep:     reg.Counter("mira_http_sweep_requests", "POST /sweep requests"),
		reqReport:    reg.Counter("mira_http_report_requests", "POST /report requests"),
		reqWorkloads: reg.Counter("mira_http_workload_requests", "GET /workloads requests"),
		reqArchs:     reg.Counter("mira_http_arch_requests", "GET /archs requests"),
		reqErrors:    reg.Counter("mira_http_request_errors", "requests answered with a 4xx/5xx status"),
		httpLat:      reg.Summary("mira_http_seconds", "HTTP request latency"),
	}
	s.writeDeadline = writeTimeout
	for _, wl := range report.Workloads() {
		s.workloads = append(s.workloads, workloadInfo{Workload: wl, Key: eng.Key(wl.Source)})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("POST /report", s.handleReport)
	mux.HandleFunc("GET /workloads", s.handleWorkloads)
	mux.HandleFunc("GET /archs", s.handleArchs)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if node != nil {
		mux.Handle("/cluster/", node.Handler())
	}
	s.handler = s.instrument(s.frontDoor(mux))
	return s
}

// ServeHTTP makes *server the daemon's root handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// instrument wraps the mux with latency observation and a last-resort
// recover: the engine converts hostile-input panics into errors, and
// anything that still escapes must end one request, not the daemon.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			s.httpLat.Observe(time.Since(start).Seconds())
			if rec := recover(); rec != nil {
				s.reqErrors.Inc()
				log.Printf("mira-serve: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				http.Error(w, `{"error":"internal error"}`, http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// apiError answers a request with a JSON error body.
func (s *server) apiError(w http.ResponseWriter, status int, format string, args ...any) {
	s.reqErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxPooledEncoder bounds the buffer an idle encoder keeps: a sweep
// chunk of wide points fits, a one-off giant /query answer is dropped.
const maxPooledEncoder = 1 << 20

func (s *server) encoder() *cellEncoder {
	if e, ok := s.encoders.Get().(*cellEncoder); ok {
		return e
	}
	return new(cellEncoder)
}

func (s *server) release(e *cellEncoder) {
	if cap(e.buf) <= maxPooledEncoder {
		e.buf = e.buf[:0]
		s.encoders.Put(e)
	}
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	return s.parseJSON(w, body, into)
}

// readBody reads a bounded request body. Forwarding handlers read the
// raw bytes first so an owner-routed request can be re-sent verbatim.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.ContentLength > maxRequestBytes {
		s.apiError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
		return nil, false
	}
	var body []byte
	var err error
	if r.ContentLength >= 0 {
		// A declared length within the bound is read into one buffer of
		// that size; a body that runs past it is as oversized as one
		// that declares too much.
		body = make([]byte, r.ContentLength)
		if _, err = io.ReadFull(r.Body, body); err == nil {
			var probe [1]byte
			if n, _ := io.ReadFull(r.Body, probe[:]); n > 0 {
				s.apiError(w, http.StatusRequestEntityTooLarge, "request body exceeds its declared %d bytes", r.ContentLength)
				return nil, false
			}
		}
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	}
	if err != nil {
		s.apiError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	if len(body) > maxRequestBytes {
		s.apiError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
		return nil, false
	}
	return body, true
}

func (s *server) parseJSON(w http.ResponseWriter, body []byte, into any) bool {
	if err := json.Unmarshal(body, into); err != nil {
		s.apiError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}

// funcSummary describes one modeled function in /analyze responses.
type funcSummary struct {
	Name        string   `json:"name"`
	Params      []string `json:"params,omitempty"`
	AnnotParams []string `json:"annot_params,omitempty"`
	FreeParams  []string `json:"free_params,omitempty"`
	Extern      bool     `json:"extern,omitempty"`
}

type analyzeRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// incrementalInfo reports the delta of a function-granular incremental
// analysis: which functions were served from the engine's function memo
// and which had to be recompiled, in link order. A client editing one
// function of a large program sees exactly that function (plus its
// transitive callers, whose Merkle keys include it) under "recompiled".
type incrementalInfo struct {
	Reused     []string `json:"reused"`
	Recompiled []string `json:"recompiled"`
}

type analyzeResponse struct {
	Key       string        `json:"key"`
	Name      string        `json:"name"`
	Warnings  []string      `json:"warnings,omitempty"`
	Functions []funcSummary `json:"functions"`
	// Incremental is present when this analysis ran the incremental
	// pipeline (absent for live-cache hits, where nothing ran).
	Incremental *incrementalInfo `json:"incremental,omitempty"`
}

// statusFor maps an analysis/evaluation failure to an HTTP status:
// everything deterministic about the input is the client's fault (4xx).
// Source that does not lex or parse (including source nested past the
// parser's bounds) and inputs that drove the analyzer into a guarded
// panic (engine.ErrPanicked) are plain bad requests. Cancellation
// errors are the one exception — a waiter sharing a singleflight slot
// whose owner hung up inherits the owner's context error for that round
// even though its own input is fine, so it gets a retryable 503, never a
// 4xx.
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	var perr *parser.Error
	var lerr *lexer.Error
	if errors.Is(err, engine.ErrPanicked) || errors.As(err, &perr) || errors.As(err, &lerr) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// clientGone reports whether the request's context has ended — the
// client dropped the connection (or the server is draining), so any
// response would be written to nobody. Handlers return without writing;
// the abandoned evaluation has already been aborted through the same
// context.
func clientGone(r *http.Request) bool { return r.Context().Err() != nil }

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.reqAnalyze.Inc()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req analyzeRequest
	if !s.parseJSON(w, body, &req) {
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		s.apiError(w, http.StatusBadRequest, "missing source")
		return
	}
	if req.Name == "" {
		req.Name = "input.c"
	}
	if s.forward(w, r, "", req.Source, body) {
		return
	}
	a, err := s.eng.AnalyzeCtx(r.Context(), req.Name, req.Source)
	if err != nil {
		if clientGone(r) {
			return
		}
		s.apiError(w, statusFor(err), "analyze: %v", err)
		return
	}
	resp := analyzeResponse{
		Key:      a.Key(),
		Name:     a.Name,
		Warnings: a.Warnings,
	}
	if d := a.Delta(); d != nil {
		resp.Incremental = &incrementalInfo{
			Reused:     append([]string{}, d.Reused...),
			Recompiled: append([]string{}, d.Compiled...),
		}
	}
	for _, fname := range a.Model.Order {
		f := a.Model.Funcs[fname]
		resp.Functions = append(resp.Functions, funcSummary{
			Name:        f.Name,
			Params:      f.Params,
			AnnotParams: f.AnnotParams,
			FreeParams:  f.FreeParams(),
			Extern:      f.Extern,
		})
	}
	s.writeJSON(w, resp)
}

// resolveAnalysis locates the program a request evaluates against: by
// cache key, or by (re)analyzing inline source through the content-hash
// cache. Shared by /query and /sweep. A false return means the response
// was already written (or the client is gone).
func (s *server) resolveAnalysis(w http.ResponseWriter, r *http.Request, key, name, source string) (*engine.Analysis, bool) {
	switch {
	case key != "":
		// Key resolution is the report layer's: resident analyses
		// first, then the embedded workload registry (a client may hold
		// a GET /workloads key for a source it never uploaded).
		a, err := s.runner.Analyze(r.Context(), report.WorkloadRef{Key: key})
		if err != nil {
			if clientGone(r) {
				return nil, false
			}
			if errors.Is(err, report.ErrUnknownKey) {
				s.apiError(w, http.StatusNotFound, "unknown analysis key %q (POST /analyze first, send source, or use a GET /workloads key)", key)
			} else {
				s.apiError(w, statusFor(err), "analyze: %v", err)
			}
			return nil, false
		}
		return a, true
	case strings.TrimSpace(source) != "":
		if name == "" {
			name = "input.c"
		}
		a, err := s.eng.AnalyzeCtx(r.Context(), name, source)
		if err != nil {
			if !clientGone(r) {
				s.apiError(w, statusFor(err), "analyze: %v", err)
			}
			return nil, false
		}
		return a, true
	default:
		s.apiError(w, http.StatusBadRequest, "need key or source")
		return nil, false
	}
}

// wireQuery is one /query cell as it appears on the wire.
type wireQuery struct {
	Fn   string           `json:"fn"`
	Env  map[string]int64 `json:"env,omitempty"`
	Kind string           `json:"kind"`
	// Arch optionally overrides the engine's architecture description
	// for roofline and fine-category cells ("arya", "frankenstein",
	// "generic").
	Arch string `json:"arch,omitempty"`
}

type queryRequest struct {
	// Key references a previously analyzed program; Source (with
	// optional Name) analyzes on the fly through the content-hash cache.
	Key     string      `json:"key,omitempty"`
	Name    string      `json:"name,omitempty"`
	Source  string      `json:"source,omitempty"`
	Queries []wireQuery `json:"queries"`
}

// handleQuery is the v2 batched endpoint: N (function, env, kind) cells
// against one cached artifact in a single round trip, with per-query
// errors and the whole evaluation tied to the request context — a
// dropped connection aborts the remaining cells.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.reqQuery.Inc()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req queryRequest
	if !s.parseJSON(w, body, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.apiError(w, http.StatusBadRequest, "missing queries")
		return
	}
	if len(req.Queries) > maxQueriesPerRequest {
		s.apiError(w, http.StatusRequestEntityTooLarge, "%d queries exceeds the per-request limit of %d", len(req.Queries), maxQueriesPerRequest)
		return
	}
	if s.forward(w, r, req.Key, req.Source, body) {
		return
	}
	a, ok := s.resolveAnalysis(w, r, req.Key, req.Name, req.Source)
	if !ok {
		return
	}

	// Decode every cell first: malformed cells become per-query errors
	// while the well-formed remainder still evaluates as one batch.
	results := make([]engine.QueryResult, len(req.Queries))
	queries := make([]engine.Query, 0, len(req.Queries))
	qIdx := make([]int, 0, len(req.Queries))
	for i, wq := range req.Queries {
		kind, err := engine.ParseKind(wq.Kind)
		if err != nil {
			results[i].Err = err
			continue
		}
		if wq.Fn == "" {
			results[i].Err = errors.New("missing fn")
			continue
		}
		queries = append(queries, engine.Query{
			Fn:   wq.Fn,
			Env:  expr.EnvFromInts(wq.Env),
			Kind: kind,
			Arch: wq.Arch,
		})
		qIdx = append(qIdx, i)
	}

	for k, res := range a.Run(r.Context(), queries) {
		results[qIdx[k]] = res
	}
	if clientGone(r) {
		return
	}
	e := s.encoder()
	defer s.release(e)
	e.appendQueryResponse(a.Key(), req.Queries, results)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(e.buf)
}

// sweepRequest is one POST /sweep body: a program reference plus the
// sweep specification, mirroring engine.SweepSpec on the wire.
type sweepRequest struct {
	// Key references a previously analyzed program; Source (with
	// optional Name) analyzes on the fly through the content-hash cache.
	Key    string `json:"key,omitempty"`
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`

	Fn string `json:"fn"`
	// Kind defaults to "static".
	Kind   string             `json:"kind,omitempty"`
	Axes   []engine.SweepAxis `json:"axes,omitempty"`
	Points []map[string]int64 `json:"points,omitempty"`
	Base   map[string]int64   `json:"base,omitempty"`
	Archs  []string           `json:"archs,omitempty"`
}

// sweepFlushEvery bounds how many points are buffered before the
// response writer is flushed: a 64k-point sweep streams in chunks
// instead of one giant allocation, and a slow client sees data early.
const sweepFlushEvery = 512

// handleSweep is the mass-evaluation endpoint: one function, one query
// kind, a whole parameter grid in a single request. The model is
// compiled to closed form once and each point is a flat expression
// evaluation; the response streams as chunked JSON with per-point
// errors. Spec problems (unknown function, bad kind, an over-limit
// grid) fail the request before any point is written.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.reqSweep.Inc()
	var req sweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Fn == "" {
		s.apiError(w, http.StatusBadRequest, "missing fn")
		return
	}
	if req.Kind == "" {
		req.Kind = engine.KindStatic.String()
	}
	kind, err := engine.ParseKind(req.Kind)
	if err != nil {
		s.apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, ok := s.resolveAnalysis(w, r, req.Key, req.Name, req.Source)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.writeDeadline)
	defer cancel()
	res, err := a.Sweep(ctx, engine.SweepSpec{
		Fn:     req.Fn,
		Kind:   kind,
		Axes:   req.Axes,
		Points: req.Points,
		Base:   req.Base,
		Archs:  req.Archs,
	})
	if err != nil {
		if clientGone(r) {
			return
		}
		status := statusFor(err)
		if errors.Is(err, engine.ErrSweepTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.apiError(w, status, "sweep: %v", err)
		return
	}
	if clientGone(r) {
		return
	}

	// Stream the grid: header object first, then the points array in
	// flushed chunks, then the closing brace — a well-formed single JSON
	// document delivered incrementally. Each point ends in a newline and
	// the next starts with the comma, so a client can also read the
	// points one line at a time.
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	e := s.encoder()
	defer s.release(e)
	e.appendSweepHeader(a.Key(), req.Fn, kind.String(), len(res.Points))
	for i := range res.Points {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.appendSweepPoint(&res.Points[i])
		if (i+1)%sweepFlushEvery == 0 {
			if clientGone(r) {
				return // mid-stream abort: the client is not reading anyway
			}
			// Writes to w are best-effort throughout the stream: a failed
			// write means the client went away, and clientGone catches
			// that at the next chunk.
			_, _ = w.Write(e.buf)
			if flusher != nil {
				flusher.Flush()
			}
			e.buf = e.buf[:0]
		}
	}
	e.buf = append(e.buf, "]}\n"...)
	_, _ = w.Write(e.buf)
}

// workloadInfo is one GET /workloads entry: the registry metadata plus
// the engine's content key, so a client can POST /query or /report by
// key without ever uploading the source text.
type workloadInfo struct {
	report.Workload
	Key string `json:"key"`
}

type workloadsResponse struct {
	Workloads []workloadInfo `json:"workloads"`
	// Suites are the named report suites POST /report serves.
	Suites []string `json:"suites"`
}

// handleWorkloads lists the embedded workload registry with content
// keys, and the named suites, for client discovery.
func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.reqWorkloads.Inc()
	resp := workloadsResponse{Workloads: s.workloads, Suites: []string{}}
	for name := range s.suites {
		resp.Suites = append(resp.Suites, name)
	}
	sort.Strings(resp.Suites)
	s.writeJSON(w, resp)
}

// archInfo is one GET /archs entry: a registered architecture name,
// the content key its cache and memo entries are addressed under, and
// the full description, so a client can see exactly which machine
// parameters a named query will run against.
type archInfo struct {
	Name string            `json:"name"`
	Key  string            `json:"key"`
	Desc *arch.Description `json:"desc"`
}

type archsResponse struct {
	Archs []archInfo `json:"archs"`
}

// handleArchs lists the engine's architecture registry — the builtins
// plus any -arch-dir loads — with content keys, for client discovery.
func (s *server) handleArchs(w http.ResponseWriter, r *http.Request) {
	s.reqArchs.Inc()
	resp := archsResponse{Archs: []archInfo{}}
	for _, e := range s.eng.Registry().Entries() {
		resp.Archs = append(resp.Archs, archInfo{Name: e.Name, Key: e.Key, Desc: e.Desc})
	}
	s.writeJSON(w, resp)
}

// reportRequest is one POST /report body: a named suite or an inline
// declarative spec, plus the response encoding.
type reportRequest struct {
	// Suite names a registered suite (see GET /workloads).
	Suite string `json:"suite,omitempty"`
	// Spec is an inline declarative suite: grid sections over named
	// workloads, keys, or inline sources.
	Spec *report.SuiteSpec `json:"spec,omitempty"`
	// Format selects the response encoding: json (default), csv,
	// table, or markdown.
	Format string `json:"format,omitempty"`
}

// handleReport runs a report suite — the paper's tables and figures, or
// any client-defined scenario grid — and answers in the requested
// encoding. Spec problems (unknown suite, workload, function, kind; an
// over-limit grid) are 4xx before evaluation; per-cell failures ride in
// the rows; the whole run is tied to the request context, so a dropped
// connection cancels the remaining sections.
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.reqReport.Inc()
	var req reportRequest
	if !s.decode(w, r, &req) {
		return
	}
	format := report.FormatJSON
	if req.Format != "" {
		var err error
		if format, err = report.ParseFormat(req.Format); err != nil {
			s.apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var suite report.Suite
	switch {
	case req.Suite != "" && req.Spec != nil:
		s.apiError(w, http.StatusBadRequest, "give a suite name or an inline spec, not both")
		return
	case req.Suite != "":
		named, ok := s.suites[req.Suite]
		if !ok {
			names := make([]string, 0, len(s.suites))
			for name := range s.suites {
				names = append(names, name)
			}
			sort.Strings(names)
			s.apiError(w, http.StatusNotFound, "unknown suite %q (suites: %s)", req.Suite, strings.Join(names, ", "))
			return
		}
		suite = named
	case req.Spec != nil:
		compiled, err := req.Spec.Suite()
		if err != nil {
			s.apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		suite = compiled
	default:
		s.apiError(w, http.StatusBadRequest, "need suite or spec")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.writeDeadline)
	defer cancel()
	rep, err := s.runner.Run(ctx, suite)
	if err != nil {
		if clientGone(r) {
			return
		}
		status := statusFor(err)
		if errors.Is(err, engine.ErrSweepTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.apiError(w, status, "report: %v", err)
		return
	}
	if clientGone(r) {
		return
	}
	if format == report.FormatJSON {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	if err := rep.Encode(w, format); err != nil {
		log.Printf("mira-serve: write report: %v", err)
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", openMetricsContentType)
	if err := s.reg.WriteOpenMetrics(w); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		log.Printf("mira-serve: write metrics: %v", err)
	}
}
