package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/clasp-measurement/clasp/internal/speedtest"
	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
	"github.com/clasp-measurement/clasp/internal/speedtest/ookla"
	"github.com/clasp-measurement/clasp/internal/speedtest/xfinity"
)

// servePhase bounds every transfer phase of every test (ookla download and
// upload, ndt7 on both sides, xfinity download and upload).
const servePhase = 200 * time.Millisecond

// serveClients is the closed-loop client count: one per core.
const serveClients = 2

// servePlatforms is the order each client cycles through.
var servePlatforms = []string{"ookla", "mlab", "comcast"}

// daemonProc is a running speedtestd child.
type daemonProc struct {
	cmd       *exec.Cmd
	ooklaAddr string
	httpAddr  string
	ready     time.Duration // start → first successful request
	logDone   chan struct{}
}

// startDaemon starts speedtestd on ephemeral loopback ports and waits for
// its first successful request.
func (r *run) startDaemon() (*daemonProc, error) {
	cmd := exec.Command(filepath.Join(r.bin, "speedtestd"),
		"-ookla", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-duration", servePhase.String())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, logDone: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		var a [2]string
		for sc.Scan() {
			line := sc.Text()
			if _, v, ok := strings.Cut(line, "ookla protocol on "); ok {
				a[0] = strings.TrimSpace(v)
			}
			if _, v, ok := strings.Cut(line, "directory on http://"); ok {
				a[1] = strings.TrimSpace(v)
				addrs <- a
			}
		}
	}()
	select {
	case a := <-addrs:
		d.ooklaAddr, d.httpAddr = a[0], a[1]
	case <-d.logDone:
		_ = d.stop() // start-up failed; that is the error to report
		return nil, fmt.Errorf("speedtestd exited before listening")
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("speedtestd did not report its addresses")
	}
	for {
		resp, err := httpClient.Get("http://" + d.httpAddr + "/servers.json")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			_ = d.stop()
			return nil, fmt.Errorf("speedtestd never answered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process and its log reader; a
// daemon that does not exit is killed. speedtestd drains and exits 0 on
// SIGTERM once its signal handler is installed, which happens just after
// it starts serving, so a daemon stopped right after start-up may also
// die of the signal itself; both are a clean stop.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { <-d.logDone; done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("speedtestd did not drain within 30s")
	}
}

// testResult is one client test as the client measured it.
type testResult struct {
	platform string
	res      speedtest.Result
	err      error
}

// drive runs serveClients closed-loop clients against d until the window
// closes; a test already started when it closes runs to completion. The
// seed picks the platform each client starts its cycle on.
func drive(d *daemonProc, seed int64, window time.Duration) ([]testResult, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), window+60*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(window)
	var mu sync.Mutex
	var out []testResult
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := int((seed%3+3)%3) + c
			for time.Now().Before(deadline) {
				plat := servePlatforms[next%len(servePlatforms)]
				next++
				res, err := runTest(ctx, d, plat)
				mu.Lock()
				out = append(out, testResult{platform: plat, res: res, err: err})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

func runTest(ctx context.Context, d *daemonProc, plat string) (speedtest.Result, error) {
	var c speedtest.Client
	addr := d.httpAddr
	switch plat {
	case "ookla":
		c, addr = ookla.NewClient(ookla.Config{DownloadDuration: servePhase, UploadDuration: servePhase}), d.ooklaAddr
	case "mlab":
		c = ndt7.NewClient(ndt7.Config{Duration: servePhase})
	default:
		c = xfinity.NewClient(xfinity.Config{Connections: 1, Duration: servePhase})
	}
	res, err := c.Run(ctx, addr)
	if err == nil && (res.BytesDown <= 0 || res.BytesUp <= 0) {
		err = fmt.Errorf("%s test moved %d bytes down, %d up", plat, res.BytesDown, res.BytesUp)
	}
	return res, err
}

// windowStats is one driven window against one daemon.
type windowStats struct {
	tests       []testResult
	window      time.Duration
	cpu         time.Duration // daemon CPU during the window
	hwm         float64       // daemon peak RSS, MB
	bytes       float64       // bytes moved by successful tests
	httpP50     float64       // daemon-side medians, ns
	downloadP50 float64
}

// tracedServe measures speedtestd on loopback inside a traced run: one
// daemon, started fresh, drives a plain window of --seconds for the
// serving values and then a window of a third of that under the daemon's
// own CPU and allocation profilers for its layer ledger.
//
// Serving is measured here and not as a workload of its own: loopback
// throughput on a shared 2-core host spread too widely from run to run to
// bound (README.md, "Serving").
func tracedServe(r *run) error {
	d, err := r.startDaemon()
	if err != nil {
		return err
	}
	r.values["daemon.start_s"] = d.ready.Seconds()
	err = r.serveWindows(d)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("speedtestd shutdown: %w", stopErr)
	}
	return err
}

// serveWindows drives d's plain window, then its profiled one.
func (r *run) serveWindows(d *daemonProc) error {
	ws, err := r.serveWindow(d, r.seconds, false)
	if err != nil {
		return err
	}
	r.serveValues(ws)
	_, err = r.serveWindow(d, r.seconds/3, true)
	return err
}

// serveValues records the per-layer serving values of a plain window.
func (r *run) serveValues(w *windowStats) {
	var pings []float64
	platBytes := map[string]float64{}
	platSecs := map[string]float64{}
	for _, t := range w.tests {
		if t.err != nil {
			continue
		}
		platBytes[t.platform] += float64(t.res.BytesDown + t.res.BytesUp)
		platSecs[t.platform] += t.res.Duration
		pings = append(pings, t.res.LatencyMs)
	}
	r.values["serve_goodput_mbps"] = w.bytes * 8 / w.window.Seconds() / 1e6
	r.values["serve_ping_p50_ms"] = median(pings)
	if pct, v, ok := tailPercentile(pings, 10); ok {
		r.values["serve_ping_ptail_ms"], r.values["serve_ping_ptail_pct"] = v, pct
	}
	r.values["serve_ping_samples"] = float64(len(pings))
	r.values["serve.tests"] = float64(len(w.tests))
	for _, p := range servePlatforms {
		r.values["serve."+p+"_mbps"] = ratio(platBytes[p]*8/1e6, platSecs[p])
	}
	r.values["daemon.http_p50_ms"] = w.httpP50 / 1e6
	r.values["daemon.ookla_download_p50_ms"] = w.downloadP50 / 1e6
	r.values[daemonPrefix+"cpu_s_per_gib"] = w.cpu.Seconds() / (w.bytes / (1 << 30))
	r.values[daemonPrefix+"peak_rss_mb"] = w.hwm
	fmt.Printf("# serve: %d tests, %.0f Mbit/s, ping p50 %.3f ms, p%.0f %.3f ms over %d samples\n",
		len(w.tests), r.values["serve_goodput_mbps"], r.values["serve_ping_p50_ms"],
		r.values["serve_ping_ptail_pct"], r.values["serve_ping_ptail_ms"], len(pings))
}

// serveWindow drives one window against d and measures it from outside:
// daemon CPU from /proc, its metrics before and after, and, when profiled,
// CPU and allocation profiles covering the window.
func (r *run) serveWindow(d *daemonProc, win time.Duration, profiled bool) (*windowStats, error) {
	pid := d.cmd.Process.Pid
	before, err := scrapeMetrics(d.httpAddr)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var profs [2][]byte
	var profErr [2]error
	var wg sync.WaitGroup
	if profiled {
		secs := int(math.Ceil(win.Seconds()))
		for i, path := range []string{"profile", "allocs"} {
			wg.Add(1)
			go func(i int, path string) {
				defer wg.Done()
				profs[i], profErr[i] = fetch(fmt.Sprintf("http://%s/debug/pprof/%s?seconds=%d", d.httpAddr, path, secs))
			}(i, path)
		}
	}
	tests, window := drive(d, r.seed, win)
	cpu1, err := procCPU(pid)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(d.httpAddr)
	if err != nil {
		return nil, err
	}
	ws := &windowStats{tests: tests, window: window, cpu: cpu1 - cpu0,
		httpP50:     before.deltaQuantile(after, "speedtestd_http_request_duration_ns", nil, 0.5),
		downloadP50: before.deltaQuantile(after, "ookla_command_duration_ns", map[string]string{"cmd": "DOWNLOAD"}, 0.5),
	}
	if ws.hwm, err = procHWM(pid); err != nil {
		return nil, err
	}
	for _, t := range tests {
		r.attempted++
		if t.err != nil {
			r.fail("%s: %v", t.platform, t.err)
			continue
		}
		ws.bytes += float64(t.res.BytesDown + t.res.BytesUp)
	}
	if ws.bytes == 0 {
		return nil, fmt.Errorf("no test succeeded")
	}
	fmt.Printf("# serve window: %d tests in %.3f s, %.3f GiB, daemon cpu %.3f s, peak rss %.1f MB\n",
		len(tests), window.Seconds(), ws.bytes/(1<<30), ws.cpu.Seconds(), ws.hwm)
	if !profiled {
		return ws, nil
	}
	for i, typ := range []string{"cpu", "alloc_space"} {
		if profErr[i] != nil {
			return nil, fmt.Errorf("daemon profile: %w", profErr[i])
		}
		p, err := parseProfile(profs[i])
		if err != nil {
			return nil, err
		}
		l, err := attribute(p, typ)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.cpuShares(l, daemonPrefix, daemonCPUModules)
			r.values[daemonPrefix+"cpu_coverage"] = ratio(l.Total/1e9, ws.cpu.Seconds())
			printLedger("speedtestd cpu ledger", l, ws.cpu.Seconds())
		} else {
			for _, m := range daemonAllocModules {
				r.values[daemonPrefix+m+".alloc_mb"] = l.Self[m] / (1 << 20)
			}
			printAllocLedger("speedtestd alloc ledger", l)
		}
	}
	return ws, nil
}

// httpClient bounds every request to the daemon, so a hung daemon fails
// the run instead of stalling it.
var httpClient = &http.Client{Timeout: time.Minute}

func fetch(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, tail(string(b), 200))
	}
	return b, nil
}

// promText is a parsed Prometheus text exposition: series key -> value.
type promText map[string]float64

func scrapeMetrics(httpAddr string) (promText, error) {
	b, err := fetch("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

func parseProm(text string) promText {
	out := promText{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// deltaQuantile estimates quantile q of the observations a histogram
// family received between two scrapes, over every series whose labels
// include match, interpolating linearly inside the bucket that holds it.
// It returns NaN when the window saw no observations.
func (before promText) deltaQuantile(after promText, family string, match map[string]string, q float64) float64 {
	cum := map[float64]float64{} // upper bound -> cumulative count in the window
	for key, v := range after {
		fam, labels := splitSeries(key)
		if fam != family+"_bucket" || labels["route"] == "/metrics" {
			continue
		}
		ok := true
		for k, want := range match {
			ok = ok && labels[k] == want
		}
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += v - before[key]
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || cum[les[len(les)-1]] == 0 {
		return math.NaN()
	}
	total := cum[les[len(les)-1]]
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, le := range les {
		if cum[le] >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			return lo + (le-lo)*(rank-prev)/(cum[le]-prev)
		}
		lo, prev = le, cum[le]
	}
	return lo
}
