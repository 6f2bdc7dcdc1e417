package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	clasp "github.com/clasp-measurement/clasp"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/scenario"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// reportWorkload is one `clasp report all` configuration.
type reportWorkload struct {
	scale float64
	days  int
	// seeds is the panel of simulation seeds the timed commands cycle
	// through; --seed picks where in the panel a run starts.
	seeds []int64
	// golden, when set, names the repository file every command's output
	// must equal; otherwise each seed's output must match reportDigests.
	golden string
	// durable adds a 1 MB record budget and a fresh checkpoint directory.
	durable bool
	// traceDurable makes the traced run add one profiled durable command,
	// which measures the write side of the storage layers.
	traceDurable bool
	// traceServe makes the traced run also measure speedtestd on loopback.
	traceServe bool
	// minRuns is the fewest timed commands a run makes, whatever --seconds.
	minRuns int
}

// parallelism is the -parallelism of every report workload: one VM worker
// per core of the 2-core machine the benchmark is sized for.
const parallelism = 2

// reportDigests are the SHA-256 digests of `clasp report all` at the
// default scale 0.25 and 30 days, per simulation seed, as recorded from
// the program. Every -parallelism, memory budget and checkpoint setting
// prints the same bytes.
var reportDigests = map[int64]string{
	1: "20ed4901f9809e7b87790acf48961091371ec77bf55b20f67efe069dbb49b714", // 69,862 bytes
	2: "a2a6bdbb3da65f0f67d0c4880d07c8c75d3ff8d325955e112212ec4a1017d889", // 71,254 bytes
	3: "689845ff0041aa29f05097f2f195de6fd08801bf6edad4d7b1e540e3f793ee07", // 67,894 bytes
}

// order returns the workload's seed panel rotated to start at the
// position the benchmark seed selects.
func (w reportWorkload) order(benchSeed int64) []int64 {
	n := int64(len(w.seeds))
	i := int((benchSeed%n + n) % n)
	return append(append([]int64(nil), w.seeds[i:]...), w.seeds[:i]...)
}

// minSamples mirrors the CLI's default differential-scan threshold.
func (w reportWorkload) minSamples() int {
	return max(int(100*w.scale), 6)
}

func (w reportWorkload) args(seed int64) []string {
	return []string{"report", "all",
		"-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(w.scale, 'g', -1, 64),
		"-days", strconv.Itoa(w.days),
		"-parallelism", strconv.Itoa(parallelism),
	}
}

// runReport measures one report workload: set-up from the benchmark's own
// calls into topology/bgp/core, then timed `clasp report all` commands
// until --seconds have been spent, each checked against the expected
// bytes. With trace set it instead makes one plain and one profiled
// command, then the durable command and the speedtestd windows if the
// workload asks for them, and times planning and rendering in-process.
func runReport(r *run, w reportWorkload) error {
	order := w.order(r.seed)
	setup, err := measureSetup(order[0], w.scale, 21)
	if err != nil {
		return err
	}
	for k, v := range setup {
		r.values[k] = v
	}
	// Return the set-up's garbage to the OS before a measured child
	// starts, so the two never compete for memory.
	debug.FreeOSMemory()

	want := reportDigests
	if w.golden != "" {
		b, err := os.ReadFile(filepath.Join(r.root, w.golden))
		if err != nil {
			return err
		}
		want = map[int64]string{}
		for _, s := range w.seeds {
			want[s] = digest(b)
		}
	}

	// Per seed of the panel: wall, CPU and peak RSS of each command.
	walls, cpus, rss := map[int64][]float64{}, map[int64][]float64{}, map[int64][]float64{}
	var info []string
	start := time.Now()
	for n := 0; ; n++ {
		if r.trace && n == 1 || !r.trace && n >= w.minRuns && time.Since(start) >= r.seconds {
			break
		}
		seed := order[n%len(order)]
		st, _, ok := r.reportOnce(w, seed, want[seed])
		if !ok {
			continue
		}
		walls[seed] = append(walls[seed], st.Wall.Seconds())
		cpus[seed] = append(cpus[seed], st.CPU.Seconds())
		rss[seed] = append(rss[seed], st.MaxRSSMB)
		info = append(info, fmt.Sprintf("seed %d: wall %.3f s (steal %.3f s), cpu %.3f s, rss %.1f MB",
			seed, st.Wall.Seconds(), st.Steal.Seconds(), st.CPU.Seconds(), st.MaxRSSMB))
	}
	if len(walls) == 0 {
		return fmt.Errorf("no report command succeeded")
	}
	r.values["wall_s"] = panelMean(walls)
	r.values["cpu_s"] = panelMean(cpus)
	r.values["peak_rss_mb"] = panelMean(rss)
	fmt.Printf("# timed commands: %s\n", strings.Join(info, "; "))
	if !r.trace {
		return nil
	}

	prof, err := r.tracedReport(w, order[0], want[order[0]])
	if err != nil {
		return err
	}
	r.values["tracing.overhead_s"] = prof.Wall.Seconds() - r.values["wall_s"]
	if w.traceDurable {
		if err := r.tracedDurable(w, order[0], want[order[0]]); err != nil {
			return err
		}
	}
	if w.traceServe {
		if err := tracedServe(r); err != nil {
			return err
		}
	}
	return r.planAndRender(w, order[0])
}

// panelMean is the mean over the panel's seeds of each seed's median:
// every run weighs each seed once, however many commands it fitted in.
func panelMean(bySeed map[int64][]float64) float64 {
	var sum float64
	for _, xs := range bySeed {
		sum += median(xs)
	}
	return sum / float64(len(bySeed))
}

// checkpointStats summarises one durable command's checkpoint directory.
type checkpointStats struct {
	commits, records int
	bytes, logBytes  int64
}

// reportOnce runs one timed command and checks it. A failed command or
// check is counted and reported; ok is false then.
func (r *run) reportOnce(w reportWorkload, seed int64, want string, extra ...string) (st *procStats, ck *checkpointStats, ok bool) {
	r.attempted++
	args := append(w.args(seed), extra...)
	var dir string
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(r.tmp, "ckpt-"); err != nil {
			r.fail("checkpoint dir: %v", err)
			return nil, nil, false
		}
		defer os.RemoveAll(dir)
		args = append(args, "-max-memory", "1", "-spill-dir", r.tmp, "-checkpoint-dir", dir)
	}
	st, err := runChild(r.clasp(), args...)
	if err != nil {
		r.fail("%v", err)
		return nil, nil, false
	}
	if got := digest(st.Stdout); got != want {
		r.fail("report output digest %s, want %s (%d bytes)", got[:12], want[:12], len(st.Stdout))
		return nil, nil, false
	}
	if w.durable {
		if ck, err = inspectCheckpoint(dir); err != nil {
			r.fail("checkpoint: %v", err)
			return nil, nil, false
		}
	}
	return st, ck, true
}

// inspectCheckpoint checks that dir holds the command manifest and a
// committed checkpoint for every planned campaign, and sums its size.
func inspectCheckpoint(dir string) (*checkpointStats, error) {
	man, err := checkpoint.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		return nil, fmt.Errorf("%s missing", checkpoint.ManifestFile)
	}
	if len(man.Campaigns) == 0 {
		return nil, fmt.Errorf("manifest lists no campaigns")
	}
	cs := &checkpointStats{}
	for _, camp := range man.Campaigns {
		ck, err := checkpoint.LoadCampaign(dir, camp)
		if err != nil {
			return nil, err
		}
		if ck == nil {
			return nil, fmt.Errorf("campaign %s has no checkpoint", checkpoint.CampaignDir(camp))
		}
		// Every round commits at the default cadence of one round.
		cs.commits += ck.Meta.Progress.NextHour
		cs.records += ck.NumRecords()
		fi, err := os.Stat(filepath.Join(dir, checkpoint.CampaignDir(camp), checkpoint.RecordsFile))
		if err != nil {
			return nil, err
		}
		cs.logBytes += fi.Size()
	}
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			cs.bytes += fi.Size()
		}
		return err
	})
	return cs, err
}

// tracedReport runs one command with the CLI's own CPU and allocation
// profiles and metrics dump, checks it, and turns the three files into
// per-layer values.
func (r *run) tracedReport(w reportWorkload, seed int64, want string) (*procStats, error) {
	cpuF := filepath.Join(r.tmp, "cpu.pprof")
	memF := filepath.Join(r.tmp, "mem.pprof")
	metF := filepath.Join(r.tmp, "metrics.prom")
	st, _, ok := r.reportOnce(w, seed, want, "-cpuprofile", cpuF, "-memprofile", memF, "-metrics-out", metF)
	if !ok {
		return nil, fmt.Errorf("traced report command failed")
	}
	cpu, err := loadLedger(cpuF, "cpu")
	if err != nil {
		return nil, err
	}
	mem, err := loadLedger(memF, "alloc_space")
	if err != nil {
		return nil, err
	}
	r.cpuLedger(cpu, st.CPU.Seconds())
	r.allocLedger(mem)

	raw, err := os.ReadFile(metF + ".json")
	if err != nil {
		return nil, err
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("metrics dump: %w", err)
	}
	c := counters(snap)
	records := c.sum("campaign_tests_completed_total", nil)
	inserts := c.sum("tsdb_inserts_total", nil)
	for _, phase := range []string{"warm", "deploy", "measure", "emit", "traceroute"} {
		r.values["orchestrator."+phase+"_s"] = c.sum("campaign_phase_seconds_total", map[string]string{"phase": phase})
	}
	r.values["orchestrator.records"] = records
	r.values["tsdb.inserts"] = inserts
	r.values["tsdb.lock_wait_s"] = c.sum("tsdb_lock_wait_ns_sum", nil) / 1e9
	r.values["someta.snapshots"] = c.sum("someta_snapshots_total", nil)
	r.values["cloud.egress_bytes"] = c.sum("cloud_egress_bytes_total", nil)
	hits, misses := c.sum("netsim_flowcache_hits_total", nil), c.sum("netsim_flowcache_misses_total", nil)
	r.values["netsim.flowcache_hit_ratio"] = ratio(hits, hits+misses)
	// CPU profile values are sampled nanoseconds.
	r.values["netsim.ns_per_record"] = ratio(cpu.Self["netsim"], records)
	r.values["tsdb.ns_per_insert"] = ratio(cpu.Self["tsdb"]+cpu.ColencBy["tsdb"], inserts)
	fmt.Printf("# traced command: wall %.3f s, cpu %.3f s; tsdb.inserts %.0f\n",
		st.Wall.Seconds(), st.CPU.Seconds(), inserts)
	return st, nil
}

// tracedDurable runs the workload once more with a 1 MB record budget and
// per-round checkpoints, under the CPU profiler: every campaign streams
// through analysis.RecordLog and spills, and every round rewrites the
// checkpoint sidecar. Its output must equal the plain command's. It
// reports the checkpoint write accounting and the RecordLog, colenc and
// checkpoint CPU shares of that command.
func (r *run) tracedDurable(w reportWorkload, seed int64, want string) error {
	w.durable = true
	cpuF := filepath.Join(r.tmp, "durable-cpu.pprof")
	st, ck, ok := r.reportOnce(w, seed, want, "-cpuprofile", cpuF)
	if !ok {
		return fmt.Errorf("durable report command failed")
	}
	r.values["checkpoint.commits"] = float64(ck.commits)
	r.values["checkpoint.bytes_written"] = float64(st.WChar)
	r.values["checkpoint.storage_bytes_written"] = float64(st.WriteBytes)
	r.values["checkpoint.final_bytes"] = float64(ck.bytes)
	r.values["checkpoint.write_amplification"] = float64(st.WChar) / float64(ck.bytes)
	r.values["analysis.recordlog_bytes_per_record"] = float64(ck.logBytes) / float64(ck.records)
	cpu, err := loadLedger(cpuF, "cpu")
	if err != nil {
		return err
	}
	r.values["durable.wall_s"] = st.Wall.Seconds()
	r.values["durable.cpu_s"] = st.CPU.Seconds()
	r.values["colenc.recordlog_cpu_frac"] = cpu.frac(cpu.ColencBy["recordlog"])
	r.values["analysis.recordlog_cpu_frac"] = cpu.frac(cpu.RecordLogSelf)
	r.values["checkpoint.incl_cpu_frac"] = cpu.frac(cpu.Checkpoint)
	printLedger("durable command cpu ledger", cpu, st.CPU.Seconds())
	return nil
}

// planAndRender times the planning layers and artifact rendering through
// their public functions, in this process, on one engine: selection for
// every campaign `report all` plans, then a first render of every artifact
// (which runs the campaigns and fills the artifact cache) and a second,
// timed render on the warm cache.
func (r *run) planAndRender(w reportWorkload, seed int64) error {
	sub, _, err := buildSubstrate(seed, w.scale)
	if err != nil {
		return err
	}
	eng, err := core.New(core.Options{Seed: seed, Scale: w.scale, Parallelism: parallelism, Substrate: sub})
	if err != nil {
		return err
	}
	var topoT, diffT time.Duration
	for _, ref := range scenario.CampaignRefs([]string{"all"}, w.days, w.minSamples()) {
		t0 := time.Now()
		if ref.Kind == "topology" {
			_, err = eng.SelectTopologyServers(ref.Region)
			topoT += time.Since(t0)
		} else {
			_, _, err = eng.SelectDifferentialServers(ref.Region, ref.MinSamples)
			diffT += time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("selection %s %s: %w", ref.Kind, ref.Region, err)
		}
	}
	r.values["selection.topology_s"] = topoT.Seconds()
	r.values["selection.differential_s"] = diffT.Seconds()

	p := clasp.NewFromCore(eng)
	cache := scenario.NewArtifactCache()
	if err := scenario.RenderArtifact(io.Discard, p, cache, "all", w.days, w.minSamples()); err != nil {
		return err
	}
	t0 := time.Now()
	if err := scenario.RenderArtifact(io.Discard, p, cache, "all", w.days, w.minSamples()); err != nil {
		return err
	}
	r.values["scenario.render_s"] = time.Since(t0).Seconds()
	return nil
}

// buildSubstrate is the set-up every report command performs before its
// first campaign: generate the topology, build the BGP router, warm the
// routing trees toward the cloud and every speed-test server AS, and wire
// the engine. It returns the substrate and the four stage durations.
func buildSubstrate(seed int64, scale float64) (*core.Substrate, [4]time.Duration, error) {
	var d [4]time.Duration
	t0 := time.Now()
	cfg := topology.PaperScaleConfig()
	cfg.Scale, cfg.Seed = scale, seed
	topo, err := topology.New(cfg)
	if err != nil {
		return nil, d, err
	}
	t1 := time.Now()
	router := bgp.NewRouter(topo)
	t2 := time.Now()
	dsts := []bgp.ASN{topo.Cloud.ASN}
	seen := map[bgp.ASN]bool{topo.Cloud.ASN: true}
	for _, s := range topo.Servers() {
		if !seen[s.ASN] {
			seen[s.ASN] = true
			dsts = append(dsts, s.ASN)
		}
	}
	router.Warm(dsts, parallelism)
	t3 := time.Now()
	sub := &core.Substrate{Topo: topo, Router: router}
	if _, err := core.New(core.Options{Seed: seed, Scale: scale, Parallelism: parallelism, Substrate: sub}); err != nil {
		return nil, d, err
	}
	t4 := time.Now()
	d = [4]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}
	return sub, d, nil
}

// measureSetup builds the substrate reps times and returns the median
// total (setup_s) and the median of each stage.
func measureSetup(seed int64, scale float64, reps int) (map[string]float64, error) {
	var stages [4][]float64
	var totals []float64
	for i := 0; i < reps; i++ {
		_, d, err := buildSubstrate(seed, scale)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		var total time.Duration
		for j := range d {
			stages[j] = append(stages[j], d[j].Seconds())
			total += d[j]
		}
		totals = append(totals, total.Seconds())
	}
	return map[string]float64{
		"setup_s":           median(totals),
		"topology.build_s":  median(stages[0]),
		"bgp.router_s":      median(stages[1]),
		"bgp.warm_s":        median(stages[2]),
		"core.engine_new_s": median(stages[3]),
	}, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSnapshot is the -metrics-out JSON dump: series key -> value, where
// a key is `family{label="v",...}` and a histogram's value is an object.
type metricSnapshot map[string]float64

// counters flattens a metrics dump to scalar series; histograms contribute
// "<family>_sum" and "<family>_count" under the same labels.
func counters(snap map[string]json.RawMessage) metricSnapshot {
	out := metricSnapshot{}
	for k, raw := range snap {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[k] = v
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if json.Unmarshal(raw, &h) == nil {
			fam, labels, _ := strings.Cut(k, "{")
			if labels != "" {
				labels = "{" + labels
			}
			out[fam+"_sum"+labels] = h.Sum
			out[fam+"_count"+labels] = h.Count
		}
	}
	return out
}

// sum adds every series of family whose labels include match.
func (s metricSnapshot) sum(family string, match map[string]string) float64 {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed summation order keeps float sums reproducible
	var total float64
	for _, k := range keys {
		fam, labels := splitSeries(k)
		if fam != family {
			continue
		}
		ok := true
		for mk, mv := range match {
			ok = ok && labels[mk] == mv
		}
		if ok {
			total += s[k]
		}
	}
	return total
}

// splitSeries parses `family{a="x",b="y"}` into the family and its labels.
func splitSeries(key string) (string, map[string]string) {
	fam, rest, ok := strings.Cut(key, "{")
	labels := map[string]string{}
	if !ok {
		return fam, labels
	}
	rest = strings.TrimSuffix(rest, "}")
	for rest != "" {
		k, after, ok := strings.Cut(rest, `="`)
		if !ok {
			break
		}
		v, after, _ := strings.Cut(after, `"`)
		labels[k] = v
		rest = strings.TrimPrefix(after, ",")
	}
	return fam, labels
}

// loadLedger parses a profile file and attributes its typ samples.
func loadLedger(path, typ string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return attribute(p, typ)
}
