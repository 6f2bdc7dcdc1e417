// Command claspbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and the two program binaries into
// .bench_build/bin) and runs one workload per invocation against the real
// `clasp` and `speedtestd` processes:
//
//	bash claspbench/run.sh --workload report-default --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it times the workload and prints the end-to-end metrics;
// with --trace 1 it makes a separate, profiled run and prints the
// per-layer metrics. Human-readable lines starting with "#" come first;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 7.9, "unit": "s"}, ...}}
//
// Every output is checked; a failed check makes "correct" false and the
// exit status 1. README.md explains the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"report-default": func(r *run) error {
		return runReport(r, reportWorkload{scale: 0.25, days: 30, seeds: []int64{1, 2, 3}, minRuns: 3, traceDurable: true, traceServe: true})
	},
	"report-paper": func(r *run) error {
		return runReport(r, reportWorkload{scale: 1.0, days: 153, seeds: []int64{1}, golden: "paperscale_report.txt", minRuns: 2})
	},
}

// run is one benchmark invocation's state and accumulated values.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // the checkout the benchmark runs in
	bin     string // directory holding the built clasp and speedtestd
	tmp     string // per-run temporary directory inside the checkout

	attempted, failed int
	values            map[string]float64
}

func (r *run) clasp() string { return filepath.Join(r.bin, "clasp") }

// fail counts one failed operation and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "claspbench: FAILED: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds to measure for")
	trace := flag.Int("trace", 0, "1 makes a profiled run that reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: claspbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	res, err := benchmark(run, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "claspbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "claspbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// benchmark runs one workload and assembles its result line.
func benchmark(workload func(*run) error, seed int64, seconds time.Duration, trace bool) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{seed: seed, seconds: seconds, trace: trace, root: root, bin: filepath.Dir(exe), tmp: tmp,
		values: map[string]float64{}}
	if err := workload(r); err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)

	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		// A per-layer value left unset is a layer the workload does not
		// exercise, and reads 0.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("# %-40s %16.6f %s\n", d.name, v, d.unit)
	}
	return res, nil
}
