// Command obssmoke is the CI gate for the observability layer: it runs a
// tiny metrics-enabled campaign, then asserts that the Prometheus dump
// parses, contains the core series with nonzero values, has no duplicate
// series, and agrees with the JSON snapshot (no unregistered or orphaned
// metric families on either side). It then scrapes the registry into a
// real self-telemetry store and validates the scraped-series naming
// contract (counter value/rate fields, histogram family + _bucket/le/cum
// shape, tsdb ident validity). It exits nonzero with a diagnostic on any
// violation.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	clasp "github.com/clasp-measurement/clasp"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/telemetry"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: OK")
}

// coreSeries are the families the smoke campaign must populate with
// nonzero values: cache effectiveness, measure latency and campaign
// progress. Self-store ingest (tsdb_inserts_total) is checked after the
// self-store scrape, its only writer.
var coreSeries = []string{
	"netsim_flowcache_hits_total",
	"netsim_flowcache_misses_total",
	"bgp_tree_cache_misses_total",
	"bgp_link_cache_hits_total",
	"netsim_measure_latency_ns_count",
	"campaign_tests_completed_total",
	"campaign_someta_snapshots_total",
	"cloud_egress_bytes_total",
}

func run() error {
	obs.SetEnabled(true)

	p, err := clasp.New(clasp.Options{Seed: 1, Scale: 0.25, Parallelism: 2})
	if err != nil {
		return err
	}
	res, err := p.RunTopologyCampaign("us-west1", 1)
	if err != nil {
		return err
	}
	if res.Report.Tests == 0 {
		return fmt.Errorf("smoke campaign ran no tests")
	}

	var prom strings.Builder
	if err := obs.Default().WriteProm(&prom); err != nil {
		return fmt.Errorf("WriteProm: %w", err)
	}
	sums, err := parseProm(prom.String())
	if err != nil {
		return err
	}

	for _, name := range coreSeries {
		v, ok := sums[name]
		if !ok {
			return fmt.Errorf("core series %s missing from Prometheus dump", name)
		}
		if v <= 0 {
			return fmt.Errorf("core series %s is zero after a %d-test campaign", name, res.Report.Tests)
		}
	}

	// The JSON snapshot must serialise cleanly and name exactly the same
	// metric families as the text dump: a mismatch means a metric was
	// emitted without being registered (or vice versa).
	snap := obs.Default().Snapshot()
	js, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("snapshot does not serialise: %w", err)
	}
	var back map[string]any
	if err := json.Unmarshal(js, &back); err != nil {
		return fmt.Errorf("snapshot JSON does not parse back: %w", err)
	}
	snapFamilies := make(map[string]bool)
	for id := range snap {
		snapFamilies[familyOf(id)] = true
	}
	promFamilies := make(map[string]bool)
	for name := range sums {
		promFamilies[histBase(name)] = true
	}
	var missing []string
	for f := range promFamilies {
		if !snapFamilies[f] {
			missing = append(missing, f)
		}
	}
	for f := range snapFamilies {
		if !promFamilies[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("prom dump and JSON snapshot disagree on families: %v", missing)
	}

	// Scrape the post-campaign registry into a real self-telemetry store
	// and validate the scraped-series naming contract: counters and gauges
	// keep their family name and gain value (+rate for counters) fields;
	// histograms produce the family (count/sum/rate) plus a "<family>_bucket"
	// measurement whose series carry parseable le tags and the cum field.
	// Inserting through the real store also proves every scraped name,
	// tag and field passes tsdb ident validation. The scrape's own inserts
	// move tsdb_inserts_total, so the contract is checked against the
	// registry as the scrape saw it, and ingest against the registry after
	// it.
	pipe := telemetry.NewPipeline(telemetry.PipelineConfig{})
	samples := obs.Default().Samples()
	if err := pipe.Cycle(); err != nil {
		return fmt.Errorf("scrape cycle over campaign registry: %w", err)
	}
	prom.Reset()
	if err := obs.Default().WriteProm(&prom); err != nil {
		return fmt.Errorf("WriteProm after scrape: %w", err)
	}
	after, err := parseProm(prom.String())
	if err != nil {
		return err
	}
	if after["tsdb_inserts_total"] <= 0 {
		return fmt.Errorf("core series tsdb_inserts_total is zero after a self-store scrape")
	}
	scraped := 0
	for _, s := range samples {
		series := pipe.Store.Query(s.Name, nil, time.Time{}, time.Time{})
		if len(series) == 0 {
			return fmt.Errorf("scrape: family %s has no self-store series", s.Name)
		}
		scraped++
		switch s.Kind {
		case obs.KindCounter:
			if err := wantFields(series, "value", "rate"); err != nil {
				return fmt.Errorf("scrape: counter %s: %w", s.Name, err)
			}
		case obs.KindGauge:
			if err := wantFields(series, "value"); err != nil {
				return fmt.Errorf("scrape: gauge %s: %w", s.Name, err)
			}
		case obs.KindHistogram:
			if err := wantFields(series, "count", "sum", "rate"); err != nil {
				return fmt.Errorf("scrape: histogram %s: %w", s.Name, err)
			}
			if s.Count == 0 {
				continue // no observations, no bucket series
			}
			buckets := pipe.Store.Query(s.Name+"_bucket", nil, time.Time{}, time.Time{})
			if len(buckets) == 0 {
				return fmt.Errorf("scrape: histogram %s has no _bucket series", s.Name)
			}
			for _, b := range buckets {
				le := b.Tags["le"]
				if le == "" {
					return fmt.Errorf("scrape: %s_bucket series lacks le tag: %v", s.Name, b.Tags)
				}
				if le != "+Inf" {
					if _, err := strconv.ParseFloat(le, 64); err != nil {
						return fmt.Errorf("scrape: %s_bucket has unparseable le %q", s.Name, le)
					}
				}
				if err := wantFields([]tsdb.Series{b}, "cum"); err != nil {
					return fmt.Errorf("scrape: %s_bucket: %w", s.Name, err)
				}
			}
		}
	}
	if scraped == 0 {
		return fmt.Errorf("scrape produced no series")
	}

	fmt.Printf("obssmoke: %d tests, %d prom series, %d families, %d scraped, flowcache hit rate %.1f%%\n",
		res.Report.Tests, len(sums), len(promFamilies), scraped,
		100*sums["netsim_flowcache_hits_total"]/(sums["netsim_flowcache_hits_total"]+sums["netsim_flowcache_misses_total"]))
	return nil
}

// wantFields asserts every point of every series carries the named fields.
func wantFields(series []tsdb.Series, names ...string) error {
	for _, sr := range series {
		for _, p := range sr.Points {
			for _, n := range names {
				if _, ok := p.Fields[n]; !ok {
					return fmt.Errorf("series %v point lacks field %q (has %v)", sr.Tags, n, p.Fields)
				}
			}
		}
	}
	return nil
}

// parseProm validates the text exposition format line by line and returns
// per-family value sums (labels aggregated). It rejects duplicate series
// and samples for families with no preceding # TYPE header.
func parseProm(text string) (map[string]float64, error) {
	sums := make(map[string]float64)
	seen := make(map[string]bool)
	typed := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE header %q", ln+1, line)
			}
			if prev, dup := typed[parts[2]]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s (already %s)", ln+1, parts[2], prev)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// sample: name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: no value separator in %q", ln+1, line)
		}
		id, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		if seen[id] {
			return nil, fmt.Errorf("line %d: duplicate series %q", ln+1, id)
		}
		seen[id] = true
		name := id
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("line %d: unbalanced label block in %q", ln+1, id)
			}
			name = name[:b]
		}
		if _, ok := typed[histBase(name)]; !ok {
			return nil, fmt.Errorf("line %d: sample %q has no # TYPE header", ln+1, id)
		}
		sums[name] += v
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("empty Prometheus dump")
	}
	return sums, nil
}

// familyOf strips a snapshot series id down to its family name.
func familyOf(id string) string {
	if b := strings.IndexByte(id, '{'); b >= 0 {
		return id[:b]
	}
	return id
}

// histBase maps histogram sample names (_bucket/_sum/_count) to the family
// they were registered under.
func histBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if s, ok := strings.CutSuffix(name, suf); ok {
			return s
		}
	}
	return name
}
