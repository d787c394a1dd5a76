package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mira/internal/benchprogs"
	"mira/internal/cluster"
	"mira/internal/core"
	"mira/internal/engine"
	"mira/internal/obs"
)

// newDoorServer builds a lone daemon (no cluster node) whose front door
// is sized by adm and rl.
func newDoorServer(t *testing.T, adm AdmissionOptions, rl RateLimiterOptions) *server {
	t.Helper()
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Core: core.Options{}, Obs: reg})
	return newServer(eng, reg, testSuites(), nil, adm, rl)
}

// TestFrontDoorShedsBulk: a lone daemon with one bulk slot sheds a
// second concurrent /sweep with 503 + Retry-After while /query still
// serves; the held sweep then completes, and bulk work is re-admitted.
func TestFrontDoorShedsBulk(t *testing.T) {
	s := newDoorServer(t, AdmissionOptions{InteractiveSlots: 4, BulkSlots: 1}, RateLimiterOptions{})

	// The first sweep holds the bulk slot while its body is unread: the
	// front door admits before the handler reads the request.
	body, feed := io.Pipe()
	defer feed.Close() // unblocks the held sweep if the test fails early
	first := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(first, httptest.NewRequest("POST", "/sweep", body))
	}()
	for deadline := time.Now().Add(10 * time.Second); s.admission.BulkInflight() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first sweep was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	w := postJSON(t, s, "/sweep", json.RawMessage(sweepBody()))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent sweep: %d, want 503 (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response is missing Retry-After")
	}
	// Interactive work is unaffected by bulk saturation.
	if w := postJSON(t, s, "/query", json.RawMessage(queryBody())); w.Code != http.StatusOK {
		t.Fatalf("query while bulk saturated: %d (%s)", w.Code, w.Body.String())
	}

	go func() {
		_, _ = io.WriteString(feed, sweepBody())
		feed.Close()
	}()
	<-done
	if first.Code != http.StatusOK {
		t.Fatalf("held sweep: %d (%s)", first.Code, first.Body.String())
	}
	if w := postJSON(t, s, "/sweep", json.RawMessage(sweepBody())); w.Code != http.StatusOK {
		t.Fatalf("sweep after release: %d (%s)", w.Code, w.Body.String())
	}
}

// TestFrontDoorRateLimits: on a lone daemon, a client past its bucket
// answers 429; control paths are never limited.
func TestFrontDoorRateLimits(t *testing.T) {
	s := newDoorServer(t, AdmissionOptions{}, RateLimiterOptions{Rate: 1, Burst: 1})

	if w := postJSON(t, s, "/query", json.RawMessage(queryBody())); w.Code != http.StatusOK {
		t.Fatalf("first query: %d (%s)", w.Code, w.Body.String())
	}
	w := postJSON(t, s, "/query", json.RawMessage(queryBody()))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second query: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}

	// Health checks pass regardless of the client's bucket.
	if w := get(s, "/livez"); w.Code != http.StatusOK {
		t.Fatalf("livez while rate-limited: %d", w.Code)
	}
}

// forwardedQuery sends a /query that claims to come from a sibling.
func forwardedQuery(s *server) *httptest.ResponseRecorder {
	return queryFrom(s, "", true)
}

// queryFrom posts a /query from the remote address remote (httptest's
// default when empty), with a sibling's forwarded header when forwarded.
func queryFrom(s *server, remote string, forwarded bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/query", strings.NewReader(queryBody()))
	if remote != "" {
		req.RemoteAddr = remote
	}
	if forwarded {
		req.Header.Set(cluster.ForwardedHeader, "http://origin.invalid:1")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestLoneDaemonIgnoresForwardedHeader: a lone daemon has no siblings,
// so a client setting the forwarded header must not skip -rate.
func TestLoneDaemonIgnoresForwardedHeader(t *testing.T) {
	s := newDoorServer(t, AdmissionOptions{}, RateLimiterOptions{Rate: 1, Burst: 1})
	if w := forwardedQuery(s); w.Code != http.StatusOK {
		t.Fatalf("first query: %d (%s)", w.Code, w.Body.String())
	}
	if w := forwardedQuery(s); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second query with a forwarded header: %d, want 429", w.Code)
	}
}

// testPeer is the second ring member of the forwarded-header tests: a
// loopback port nothing listens on, so a request the ring routes there
// fails to forward at once and is served locally.
const testPeer = "http://127.0.0.1:1"

// TestForwardedRequestSkipsRateLimit: on a clustered daemon, a request
// that a sibling forwarded, from that sibling's host, already paid at
// the origin replica.
func TestForwardedRequestSkipsRateLimit(t *testing.T) {
	s := newClusterTestServer(t, RateLimiterOptions{Rate: 1, Burst: 1}, testPeer)
	for range 2 {
		queryFrom(s, "127.0.0.1:40000", false) // spends the peer host's token
	}
	if w := queryFrom(s, "127.0.0.1:40001", true); w.Code != http.StatusOK {
		t.Fatalf("forwarded query from a peer past the bucket: %d, want 200 (%s)", w.Code, w.Body.String())
	}
}

// TestForgedForwardedHeaderIsRateLimited: on a clustered daemon, the
// forwarded header from a host that is not a ring peer is a client's
// own, and does not skip -rate.
func TestForgedForwardedHeaderIsRateLimited(t *testing.T) {
	s := newClusterTestServer(t, RateLimiterOptions{Rate: 1, Burst: 1}, testPeer)
	if w := queryFrom(s, "192.0.2.7:1234", true); w.Code != http.StatusOK {
		t.Fatalf("first query: %d (%s)", w.Code, w.Body.String())
	}
	if w := queryFrom(s, "192.0.2.7:1234", true); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second query with a forged forwarded header: %d, want 429", w.Code)
	}
}

// TestReadyzDrainingAndSaturation: /livez is pure liveness; /readyz
// flips to 503 under drain and under interactive saturation.
func TestReadyzDrainingAndSaturation(t *testing.T) {
	s := newDoorServer(t, AdmissionOptions{InteractiveSlots: 1}, RateLimiterOptions{})

	if w := get(s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("idle readyz: %d (%s)", w.Code, w.Body.String())
	}

	release, ok := s.admission.Admit(ClassInteractive)
	if !ok {
		t.Fatal("could not hold the interactive slot")
	}
	if w := get(s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: %d, want 503", w.Code)
	}
	release()
	if w := get(s, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz after release: %d", w.Code)
	}

	s.draining.Store(true)
	w := get(s, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", w.Code)
	}
	var detail struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil || detail.Status != "draining" {
		t.Errorf("draining readyz body = %s (err %v)", w.Body.String(), err)
	}
	// Liveness is unaffected: the process is still up, just not taking
	// routed traffic.
	if w := get(s, "/livez"); w.Code != http.StatusOK {
		t.Fatalf("livez while draining: %d", w.Code)
	}
}

// TestFlagPairs pins that a daemon refuses, at startup, each flag that
// does nothing without another one, naming both; and that the front
// door's flags need no -peers.
func TestFlagPairs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a run that got past the check drains and returns at once
	for _, c := range []struct {
		flag, needs string
		cfg         serveConfig
	}{
		{"-burst", "-rate", serveConfig{burst: 10}},
		{"-self", "-peers", serveConfig{self: "http://a:1"}},
	} {
		c.cfg.addr = "127.0.0.1:0"
		err := run(ctx, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.flag+" takes effect only with "+c.needs) {
			t.Errorf("run with %s and no %s: err = %v, want an error naming both", c.flag, c.needs, err)
		}
	}
	lone := serveConfig{addr: "127.0.0.1:0", rate: 5, burst: 10, interactiveSlots: 8, bulkSlots: 2}
	if err := run(ctx, lone); err != nil {
		t.Errorf("front-door flags on a lone daemon rejected: %v", err)
	}
}

// TestRunAcceptsEveryFlag starts run with every flag set, so each one's
// startup wiring runs: a cache directory, an -arch-dir machine chosen by
// -arch, cluster mode and the front door all come up, and the cancelled
// context drains at once. An unknown -arch, a bad description file or a
// -self missing from -peers fails startup instead.
func TestRunAcceptsEveryFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	archDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(archDir, "testbox.json"), []byte(testboxJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	full := serveConfig{
		addr: "127.0.0.1:0", cacheDir: t.TempDir(), jobs: 1, maxResident: 8,
		archName: "testbox", archDir: archDir, lenient: true, noOpt: true, drain: time.Second,
		peers: "127.0.0.1:1,127.0.0.1:2", self: "http://127.0.0.1:1",
		rate: 5, burst: 10, interactiveSlots: 8, bulkSlots: 2,
	}
	if err := run(ctx, full); err != nil {
		t.Fatalf("every flag set: %v", err)
	}

	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "bad.json"), []byte(`{"name": "bad"`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		want string // in the startup error
		edit func(*serveConfig)
	}{
		{`unknown architecture "nosuch"`, func(c *serveConfig) { c.archName = "nosuch" }},
		{"bad.json", func(c *serveConfig) { c.archDir = badDir }},
		{"is not among the peers", func(c *serveConfig) { c.self = "http://127.0.0.1:3" }},
		{"-peers requires -self", func(c *serveConfig) { c.self = "" }},
	} {
		cfg := full
		c.edit(&cfg)
		if err := run(ctx, cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("startup error = %v, want one containing %q", err, c.want)
		}
	}
}

func TestAdmissionShedsBulk(t *testing.T) {
	a := newAdmission(AdmissionOptions{InteractiveSlots: 2, BulkSlots: 1}, obs.NewRegistry())

	rel1, ok := a.Admit(ClassBulk)
	if !ok {
		t.Fatal("first bulk request shed with a free slot")
	}
	if _, ok := a.Admit(ClassBulk); ok {
		t.Fatal("second bulk request admitted past the slot bound")
	}
	rel1()
	rel2, ok := a.Admit(ClassBulk)
	if !ok {
		t.Fatal("bulk request shed after the slot was released")
	}
	rel2()

	// Control traffic never queues behind either class.
	if _, ok := a.Admit(ClassControl); !ok {
		t.Fatal("control traffic refused")
	}
}

func TestAdmissionSaturation(t *testing.T) {
	a := newAdmission(AdmissionOptions{InteractiveSlots: 1, BulkSlots: 1}, obs.NewRegistry())
	if a.Saturated() {
		t.Fatal("idle admission reports saturated")
	}
	rel, ok := a.Admit(ClassInteractive)
	if !ok {
		t.Fatal("interactive request shed with a free slot")
	}
	if !a.Saturated() {
		t.Fatal("full interactive class not reported saturated")
	}
	rel()
	if a.Saturated() {
		t.Fatal("released admission still saturated")
	}
}

// TestAdmissionShedResponse pins the shed response bytes: 503, a
// one-second Retry-After hint, and a JSON error body.
func TestAdmissionShedResponse(t *testing.T) {
	a := newAdmission(AdmissionOptions{}, obs.NewRegistry())
	w := httptest.NewRecorder()
	a.Shed(w)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q, want \"1\"", got)
	}
	if got, want := w.Body.String(), `{"error":"overloaded, retry later"}`+"\n"; got != want {
		t.Errorf("body %q, want %q", got, want)
	}
}

func TestClassOf(t *testing.T) {
	for path, want := range map[string]Class{
		"/query":             ClassInteractive,
		"/analyze":           ClassInteractive,
		"/sweep":             ClassBulk,
		"/report":            ClassBulk,
		"/metrics":           ClassControl,
		"/livez":             ClassControl,
		"/cluster/ring":      ClassControl,
		"/cluster/func/abcd": ClassControl,
	} {
		if got := ClassOf(path); got != want {
			t.Errorf("ClassOf(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestRateLimiter(t *testing.T) {
	now := time.Unix(2000, 0)
	l := newRateLimiter(RateLimiterOptions{Rate: 1, Burst: 2}, obs.NewRegistry(), func() time.Time { return now })

	if !l.Allow("a") || !l.Allow("a") {
		t.Fatal("burst refused")
	}
	if l.Allow("a") {
		t.Fatal("request allowed past the burst")
	}
	// A different client has its own bucket.
	if !l.Allow("b") {
		t.Fatal("second client refused on first request")
	}
	// Refill at 1 req/s.
	now = now.Add(time.Second)
	if !l.Allow("a") {
		t.Fatal("refilled bucket refused")
	}
	if l.Allow("a") {
		t.Fatal("request allowed past the refill")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	l := newRateLimiter(RateLimiterOptions{}, obs.NewRegistry(), nil)
	for i := 0; i < 100; i++ {
		if !l.Allow("a") {
			t.Fatal("disabled limiter refused a request")
		}
	}
	if l.Clients() != 0 {
		t.Errorf("disabled limiter tracked %d clients", l.Clients())
	}
}

func TestRateLimiterEviction(t *testing.T) {
	now := time.Unix(3000, 0)
	l := newRateLimiter(RateLimiterOptions{Rate: 100, MaxClients: 8}, obs.NewRegistry(), func() time.Time { return now })
	for i := 0; i < 8; i++ {
		l.Allow(fmt.Sprintf("client-%d", i))
	}
	// New clients past the bound evict stale buckets instead of growing.
	now = now.Add(10 * time.Second)
	l.Allow("newcomer")
	if n := l.Clients(); n > 8 {
		t.Errorf("limiter tracks %d clients past the bound of 8", n)
	}
}

// TestBulkHandlersStopAtWriteDeadline: /sweep and /report stop
// evaluating once the server's write deadline passes, instead of
// computing a response the server would no longer send, and free their
// bulk slot. Each request sweeps miniFE over 65,536 points whose
// multiplicities enumerate sums, many minutes of work.
func TestBulkHandlersStopAtWriteDeadline(t *testing.T) {
	s := newDoorServer(t, AdmissionOptions{BulkSlots: 1}, RateLimiterOptions{})
	const deadline = 300 * time.Millisecond
	s.writeDeadline = deadline
	w := postJSON(t, s, "/analyze", map[string]any{"name": "minife.c", "source": benchprogs.MiniFE})
	if w.Code != 200 {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	var ar analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	axis := func(name string, lo, hi int64) map[string]any {
		var vals []int64
		for v := lo; v <= hi; v++ {
			vals = append(vals, v)
		}
		return map[string]any{"name": name, "values": vals}
	}
	grid := map[string]any{
		"key": ar.Key, "fn": "minife", "base": map[string]int64{"max_iter": 10},
		"axes": []map[string]any{axis("nx", 10, 25), axis("ny", 10, 73), axis("nz", 10, 73)},
	}
	twoSections := map[string]any{"spec": map[string]any{"sections": []map[string]any{grid, grid}}}
	for _, c := range []struct {
		path string
		body map[string]any
	}{{"/sweep", grid}, {"/report", twoSections}} {
		start := time.Now()
		w := postJSON(t, s, c.path, c.body)
		elapsed := time.Since(start)
		t.Logf("%s: %d after %v", c.path, w.Code, elapsed)
		if elapsed > deadline+10*time.Second {
			t.Errorf("%s returned %v after a %v deadline", c.path, elapsed, deadline)
		}
		if c.path == "/sweep" {
			resp := decodeSweep(t, w.Body.Bytes())
			if last := resp.Points[len(resp.Points)-1]; !strings.Contains(last.Error, "deadline exceeded") {
				t.Errorf("/sweep: last point = %+v, want the deadline error", last)
			}
		} else if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "deadline exceeded") {
			t.Errorf("/report: %d %s, want 503 with the deadline error", w.Code, w.Body)
		}
		if n := s.admission.BulkInflight(); n != 0 {
			t.Errorf("%s: %d bulk slots still held", c.path, n)
		}
	}
}
