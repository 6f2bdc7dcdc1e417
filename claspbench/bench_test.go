package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/clasp-measurement/clasp/internal/tsdb.(*Series).insertSealed":            "tsdb",
		"github.com/clasp-measurement/clasp/internal/tsdb.(*Store).Insert.func1":             "tsdb",
		"github.com/clasp-measurement/clasp/internal/speedtest/ookla.(*Server).handle":       "ookla",
		"github.com/clasp-measurement/clasp/internal/speedtest.Mbps":                         "speedtest",
		"github.com/clasp-measurement/clasp/cmd/clasp.main":                                  "cmd_clasp",
		"github.com/clasp-measurement/clasp.(*Platform).Costs":                               "clasp",
		"github.com/clasp-measurement/clasp/internal/analysis.F[go.shape.*github.com/x/y.T]": "analysis",
		"runtime.gcBgMarkWorker":                  "",
		"github.com/other/mod/internal/tsdb.Open": "",
		"main.main": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pbVarint and pbBytes append one protobuf field.
func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field<<3)), v)
}

func pbBytes(b []byte, field int, msg []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field<<3|2))
	return append(binary.AppendUvarint(b, uint64(len(msg))), msg...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a CPU profile whose samples have the given
// stacks (innermost first; a stack entry "a|b" is one location whose
// first line a was inlined into b) and values.
func syntheticProfile(stacks [][]string, values []int64, unpackedFirst bool) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg []byte
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		msg = pbBytes(msg, 1, pbVarint(pbVarint(nil, 1, idx(st[0])), 2, idx(st[1])))
	}
	funcs := map[string]uint64{}
	locs := map[string]uint64{}
	var funcMsgs, locMsgs [][]byte
	fnID := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		funcMsgs = append(funcMsgs, pbVarint(pbVarint(nil, 1, id), 2, idx(name)))
		return id
	}
	locID := func(entry string) uint64 {
		if id, ok := locs[entry]; ok {
			return id
		}
		id := uint64(len(locs) + 100)
		locs[entry] = id
		m := pbVarint(nil, 1, id)
		for _, fn := range strings.Split(entry, "|") {
			m = pbBytes(m, 4, pbVarint(pbVarint(nil, 1, fnID(fn)), 2, 7))
		}
		locMsgs = append(locMsgs, m)
		return id
	}
	for i, st := range stacks {
		var ids []uint64
		for _, e := range st {
			ids = append(ids, locID(e))
		}
		var s []byte
		if i == 0 && unpackedFirst {
			for _, id := range ids {
				s = pbVarint(s, 1, id)
			}
		} else {
			s = pbBytes(s, 1, packed(ids...))
		}
		s = pbBytes(s, 2, packed(1, uint64(values[i])))
		msg = pbBytes(msg, 2, s)
	}
	for _, l := range locMsgs {
		msg = pbBytes(msg, 4, l)
	}
	for _, f := range funcMsgs {
		msg = pbBytes(msg, 5, f)
	}
	for _, s := range strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	msg = pbVarint(msg, 9, 12345) // time_nanos: a field the parser skips
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(msg)
	zw.Close()
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	const repo = "github.com/clasp-measurement/clasp/internal/"
	stacks := [][]string{
		{repo + "colenc.AppendFloats", repo + "tsdb.(*Series).seal", repo + "orchestrator.(*Orchestrator).Run"},
		{repo + "colenc.DecodeTimes", repo + "analysis.(*RecordLog).decodeLogBlock", repo + "checkpoint.(*Writer).Commit"},
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
		{"runtime.mallocgc", repo + "analysis.(*CampaignPrep).Record", repo + "orchestrator.(*Orchestrator).emit"},
		{"runtime.memmove|" + repo + "tsdb.(*Series).insert|" + repo + "tsdb.(*Store).Insert", repo + "orchestrator.StoreSink"},
		{repo + "analysis.(*RecordLog).Append", repo + "core.(*CLASP).runCampaign"},
		{repo + "colenc.AppendTimes", repo + "colenc.(*BitWriter).Flush", repo + "congestion.Build"},
	}
	values := []int64{10, 20, 30, 40, 5, 7, 3}
	p, err := parseProfile(syntheticProfile(stacks, values, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.sampleTypes, []string{"samples/count", "cpu/nanoseconds"}) {
		t.Fatalf("sample types %v", p.sampleTypes)
	}
	if got := p.samples[4].stack; len(got) != 4 || got[0] != "runtime.memmove" || got[2] != repo+"tsdb.(*Store).Insert" {
		t.Fatalf("inlined location expanded to %v", got)
	}
	l, err := attribute(p, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := &ledger{
		Total:         115,
		Self:          map[string]float64{"colenc": 33, unattributed: 30, "analysis": 47, "tsdb": 5},
		ColencBy:      map[string]float64{"tsdb": 10, "recordlog": 20, "congestion": 3},
		RecordLogSelf: 7,
		Prep:          40,
		Checkpoint:    20,
	}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("ledger\n got %+v\nwant %+v", l, want)
	}
	var sum float64
	for _, v := range l.Self {
		sum += v
	}
	if sum != l.Total {
		t.Errorf("self values sum to %v, total %v", sum, l.Total)
	}
	if _, err := attribute(p, "alloc_space"); err == nil {
		t.Error("attributing a missing sample type succeeded")
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed")
	}
}

//go:noinline
func burn(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	return x
}

var sink []byte

// TestAttributeRuntimeProfile checks the parser against profiles the Go
// runtime wrote: this package's functions must own the CPU they burned
// and the bytes they allocated.
func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	l, err := attribute(p, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if l.Total == 0 || l.frac(l.Self["claspbench"]) < 0.5 {
		t.Fatalf("claspbench owns %.2f of %.0f ns sampled; ledger %v", l.frac(l.Self["claspbench"]), l.Total, l.Self)
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < 64; i++ {
		sink = make([]byte, 1<<16)
	}
	runtime.GC()
	buf.Reset()
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		t.Fatal(err)
	}
	if p, err = parseProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if l, err = attribute(p, "alloc_space"); err != nil {
		t.Fatal(err)
	}
	if got := l.Self["claspbench"]; got < 64<<16 {
		t.Fatalf("claspbench allocated %.0f bytes by the profile, want >= %d", got, 64<<16)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	if _, _, ok := tailPercentile(seq(10), 10); ok {
		t.Error("10 samples gave a percentile with 10 beyond it")
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{11, 100.0 / 11, 1},
		{20, 50, 10},
		{100, 90, 90},
		{1000, 99, 990},
	} {
		pct, val, ok := tailPercentile(seq(c.n), 10)
		if !ok || math.Abs(pct-c.pct) > 1e-9 || val != c.val {
			t.Errorf("n=%d: p%.4f = %v (ok %v), want p%.4f = %v", c.n, pct, val, ok, c.pct, c.val)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > val {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the reported value, want 10", c.n, beyond)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestDeltaQuantile(t *testing.T) {
	before := parseProm(`# TYPE h histogram
h_bucket{cmd="A",le="10"} 5
h_bucket{cmd="A",le="20"} 5
h_bucket{cmd="A",le="+Inf"} 5
h_bucket{cmd="B",le="10"} 100
h_bucket{cmd="B",le="20"} 100
h_bucket{cmd="B",le="+Inf"} 100
`)
	after := parseProm(`h_bucket{cmd="A",le="10"} 10
h_bucket{cmd="A",le="20"} 15
h_bucket{cmd="A",le="+Inf"} 15
h_bucket{cmd="B",le="10"} 100
h_bucket{cmd="B",le="20"} 100
h_bucket{cmd="B",le="+Inf"} 100
`)
	// Window for A: 5 observations <= 10, 5 in (10, 20]; the median is
	// the 5th, at the top of the first bucket.
	if got := before.deltaQuantile(after, "h", map[string]string{"cmd": "A"}, 0.5); got != 10 {
		t.Errorf("p50(A) = %v, want 10", got)
	}
	if got := before.deltaQuantile(after, "h", map[string]string{"cmd": "A"}, 0.75); got != 15 {
		t.Errorf("p75(A) = %v, want 15", got)
	}
	if got := before.deltaQuantile(after, "h", map[string]string{"cmd": "B"}, 0.5); !math.IsNaN(got) {
		t.Errorf("p50(B) with no window observations = %v, want NaN", got)
	}
}

func TestCountersSum(t *testing.T) {
	var snap map[string]json.RawMessage
	err := json.Unmarshal([]byte(`{
		"campaign_phase_seconds_total{phase=\"emit\",region=\"a\"}": 1.5,
		"campaign_phase_seconds_total{phase=\"emit\",region=\"b\"}": 2,
		"campaign_phase_seconds_total{phase=\"warm\",region=\"a\"}": 7,
		"tsdb_lock_wait_ns": {"count": 3, "sum": 9e9, "buckets": {"1": 3}}
	}`), &snap)
	if err != nil {
		t.Fatal(err)
	}
	c := counters(snap)
	if got := c.sum("campaign_phase_seconds_total", map[string]string{"phase": "emit"}); got != 3.5 {
		t.Errorf("emit sum = %v, want 3.5", got)
	}
	if got := c.sum("campaign_phase_seconds_total", nil); got != 10.5 {
		t.Errorf("all-phase sum = %v, want 10.5", got)
	}
	if got := c.sum("tsdb_lock_wait_ns_sum", nil); got != 9e9 {
		t.Errorf("histogram sum = %v, want 9e9", got)
	}
}

// fakeProgram writes an executable named name into a fresh directory.
func fakeProgram(t *testing.T, name, script string) string {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("#!/bin/sh\n"+script), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFailureCounting checks that every way a report command can go
// wrong counts as one failed operation, and that a run with any failure
// is reported incorrect.
func TestFailureCounting(t *testing.T) {
	good := fakeProgram(t, "clasp", "echo report\n")
	crash := fakeProgram(t, "clasp", "echo partial; exit 3\n")
	want := digest([]byte("report\n"))
	w := reportWorkload{scale: 0.25, days: 30, seeds: []int64{1}}
	r := &run{tmp: t.TempDir(), values: map[string]float64{}}

	r.bin = good
	if _, _, ok := r.reportOnce(w, 1, want); !ok || r.failed != 0 {
		t.Fatalf("matching output: ok %v, failed %d", ok, r.failed)
	}
	if _, _, ok := r.reportOnce(w, 1, digest([]byte("other\n"))); ok || r.failed != 1 {
		t.Fatalf("wrong output: ok %v, failed %d", ok, r.failed)
	}
	r.bin = crash
	if _, _, ok := r.reportOnce(w, 1, want); ok || r.failed != 2 {
		t.Fatalf("non-zero exit: ok %v, failed %d", ok, r.failed)
	}
	// Right bytes but no checkpoint written: the durable check fails.
	r.bin = good
	w.durable = true
	if _, _, ok := r.reportOnce(w, 1, want); ok || r.failed != 3 {
		t.Fatalf("missing checkpoint: ok %v, failed %d", ok, r.failed)
	}
	if r.attempted != 4 {
		t.Fatalf("attempted %d, want 4", r.attempted)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	res, err := benchmark(func(r *run) error {
		r.attempted = 4
		r.fail("one of four")
		for _, d := range endToEnd {
			r.values[d.name] = 1
		}
		return nil
	}, 1, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Fatalf("result %+v, want incorrect with 1 of 4 failed", res)
	}
	if _, err := benchmark(func(r *run) error { r.attempted = 1; return nil }, 1, time.Second, false); err == nil {
		t.Fatal("a run missing end-to-end metrics succeeded")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark reports %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestParseSteal(t *testing.T) {
	stat := `cpu  1221854 0 273217 1068689 36446 0 36644 600 0 0
cpu0 610744 0 139357 533168 17983 0 17349 250 0 0
cpu1 611109 0 133859 535520 18463 0 19295 350 0 0
intr 1 2 3
ctxt 42
`
	got, err := parseSteal(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want { // (250 + 350) ticks / 100 Hz / 2 CPUs
		t.Errorf("parseSteal = %v, want %v", got, want)
	}
	if _, err := parseSteal("cpu  1 2 3 4 5 6 7 8 9 10\n"); err == nil {
		t.Error("a text with no per-CPU lines parsed")
	}
}
