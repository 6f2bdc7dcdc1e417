package orchestrator

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// TestParallelMatchesSequential is the engine's determinism guarantee: a
// campaign run at any parallelism produces the same record stream, counters
// and artifacts as the sequential run. Run with -race it doubles as the
// data-pipeline race test.
func TestParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) (*Report, []analysis.Measurement, []string) {
		f := setup(t)
		sink := &SliceSink{}
		rep, err := f.orch.Run(Config{
			Region:          "us-east1",
			Servers:         f.topo.ServersInCountry("US")[:12],
			Tiers:           []bgp.Tier{bgp.Premium, bgp.Standard},
			Days:            2,
			Seed:            17,
			TestDurationSec: 3, // keeps the synthesized captures small
			CaptureEvery:    97,
			TracerouteEvery: 1,
			Parallelism:     parallelism,
		}, sink)
		if err != nil {
			t.Fatal(err)
		}
		return rep, sink.Out, f.bucket.List("")
	}

	seqRep, seqOut, seqKeys := run(1)
	for _, parallelism := range []int{4, 16} {
		rep, out, keys := run(parallelism)
		if len(out) != len(seqOut) {
			t.Fatalf("parallelism %d: %d records, want %d", parallelism, len(out), len(seqOut))
		}
		for i := range out {
			if out[i] != seqOut[i] {
				t.Fatalf("parallelism %d: record %d = %+v, want %+v", parallelism, i, out[i], seqOut[i])
			}
		}
		if rep.Tests != seqRep.Tests || rep.Hours != seqRep.Hours ||
			rep.VMs != seqRep.VMs || rep.Captures != seqRep.Captures ||
			rep.Traceroutes != seqRep.Traceroutes {
			t.Errorf("parallelism %d: report %+v, want %+v", parallelism, rep, seqRep)
		}
		if len(keys) != len(seqKeys) {
			t.Fatalf("parallelism %d: %d bucket objects, want %d", parallelism, len(keys), len(seqKeys))
		}
		for i := range keys {
			if keys[i] != seqKeys[i] {
				t.Errorf("parallelism %d: bucket key %q, want %q", parallelism, keys[i], seqKeys[i])
			}
		}
	}
}

// TestParallelEgressAccounting verifies the accrued bill is identical at
// any parallelism: egress metering runs in the deterministic emit phase,
// so even the floating-point sums match bit for bit.
func TestParallelEgressAccounting(t *testing.T) {
	run := func(parallelism int) float64 {
		f := setup(t)
		_, err := f.orch.Run(Config{
			Region:      "us-west1",
			Servers:     f.topo.Servers()[:9],
			Days:        1,
			Seed:        3,
			Parallelism: parallelism,
		}, &SliceSink{})
		if err != nil {
			t.Fatal(err)
		}
		return f.platform.Costs().EgressUSD
	}
	seq := run(1)
	if seq <= 0 {
		t.Fatal("no egress accrued")
	}
	if par := run(4); par != seq {
		t.Errorf("egress at parallelism 4 = %v, want %v", par, seq)
	}
}

// TestLockedSinkConcurrent hammers a LockedSink-wrapped SliceSink from many
// goroutines; -race verifies the locking, the count verifies delivery.
func TestLockedSinkConcurrent(t *testing.T) {
	inner := &SliceSink{}
	sink := NewLockedSink(inner)
	const goroutines, records = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				sink.Record(analysis.Measurement{ServerID: g*records + i, Region: "us-east1"})
			}
		}(g)
	}
	wg.Wait()
	if len(inner.Out) != goroutines*records {
		t.Fatalf("records = %d, want %d", len(inner.Out), goroutines*records)
	}
}

// TestMultiSinkConcurrentFanOut fans records out to an atomic-counting
// sink and a locked slice sink from concurrent campaigns sharing one
// MultiSink.
func TestMultiSinkConcurrentFanOut(t *testing.T) {
	var counted atomic.Int64
	slice := &SliceSink{}
	sink := MultiSink{SinkFunc(func(analysis.Measurement) { counted.Add(1) }), NewLockedSink(slice)}

	f := setup(t)
	servers := f.topo.Servers()
	regions := []string{"us-east1", "us-west1", "europe-west1"}
	var wg sync.WaitGroup
	errs := make([]error, len(regions))
	for i, region := range regions {
		wg.Add(1)
		go func(i int, region string) {
			defer wg.Done()
			_, errs[i] = f.orch.Run(Config{
				Region:      region,
				Servers:     servers[:4],
				Days:        1,
				Seed:        int64(i + 1),
				Parallelism: 2,
			}, sink)
		}(i, region)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %s: %v", regions[i], err)
		}
	}
	want := len(regions) * 4 * 24 * 2
	if len(slice.Out) != want {
		t.Errorf("fanned-out records = %d, want %d", len(slice.Out), want)
	}
	if got := counted.Load(); got != int64(want) {
		t.Errorf("counted records = %d, want %d", got, want)
	}
	// 4 servers x 2 dirs x 3 regions = 24 series.
	type stream struct {
		region string
		server int
		dir    netsim.Direction
	}
	streams := make(map[stream]bool)
	for _, m := range slice.Out {
		streams[stream{m.Region, m.ServerID, m.Dir}] = true
	}
	if len(streams) != 24 {
		t.Errorf("series = %d, want 24", len(streams))
	}
}
