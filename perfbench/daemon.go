package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running mira-serve replica with its shipped defaults
// (no store, -j 0, -max-resident 4096), listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

var listenLine = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startDaemon launches bin and returns once /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The daemon must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr for the process lifetime so the daemon never
		// blocks on a full pipe; the first listen line yields the port.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("mira-serve exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("mira-serve did not report its listen address")
	}
	// One closed-loop client on one keep-alive connection.
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mira-serve not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains and exits), escalates to SIGKILL
// after ten seconds, and waits until the process has ended.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// post sends one JSON body and returns the response body and the round
// trip time (request written through the last body byte read).
func (d *daemon) post(ctx context.Context, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, rtt, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, rtt, nil
}

// postJSON marshals in, posts it, and decodes the answer into out.
func (d *daemon) postJSON(ctx context.Context, path string, in, out any) (time.Duration, int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, 0, err
	}
	raw, rtt, err := d.post(ctx, path, body)
	if err != nil {
		return rtt, len(raw), err
	}
	return rtt, len(raw), json.Unmarshal(raw, out)
}

// scrape reads /metrics into a name -> value map (unlabelled samples).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics reads an OpenMetrics exposition into a name -> value map
// (unlabelled samples).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// procStat is the daemon's CPU time (user+sys) and peak resident set.
type procStat struct {
	cpu    time.Duration
	hwmKiB float64
}

// clockTick is USER_HZ, 100 on every Linux ABI Go supports.
const clockTick = 100

func (d *daemon) stat() (procStat, error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc stat line")
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("/proc stat utime: %v", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("/proc stat stime: %v", err)
	}
	ps := procStat{cpu: time.Duration(ut+st) * time.Second / clockTick}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return procStat{}, err
			}
			ps.hwmKiB = kb
		}
	}
	return ps, nil
}
