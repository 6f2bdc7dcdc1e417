package tsdb

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func TestInsertAndQuery(t *testing.T) {
	s := NewStore()
	tags := Tags{"server": "42", "region": "us-west1", "dir": "down"}
	for h := 0; h < 24; h++ {
		err := s.Insert("throughput", tags, t0.Add(time.Duration(h)*time.Hour),
			map[string]float64{"mbps": float64(100 + h), "rtt_ms": 20})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.SeriesCount() != 1 {
		t.Errorf("series = %d", s.SeriesCount())
	}
	got := s.Query("throughput", Tags{"server": "42"}, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Points) != 24 {
		t.Fatalf("query returned %d series", len(got))
	}
	// Time-range restriction.
	got = s.Query("throughput", nil, t0.Add(6*time.Hour), t0.Add(12*time.Hour))
	if len(got) != 1 || len(got[0].Points) != 6 {
		t.Fatalf("range query points = %v", got)
	}
	if got[0].Points[0].Fields["mbps"] != 106 {
		t.Errorf("first point = %v", got[0].Points[0])
	}
	// Mismatch returns nothing.
	if r := s.Query("throughput", Tags{"server": "43"}, time.Time{}, time.Time{}); len(r) != 0 {
		t.Error("tag mismatch returned series")
	}
	if r := s.Query("latency", nil, time.Time{}, time.Time{}); len(r) != 0 {
		t.Error("wrong measurement returned series")
	}
}

func TestInsertValidation(t *testing.T) {
	s := NewStore()
	if err := s.Insert("", nil, t0, map[string]float64{"x": 1}); err == nil {
		t.Error("empty measurement accepted")
	}
	if err := s.Insert("m", Tags{"bad key": "v"}, t0, map[string]float64{"x": 1}); err == nil {
		t.Error("space in tag key accepted")
	}
	if err := s.Insert("m", Tags{"k": "a,b"}, t0, map[string]float64{"x": 1}); err == nil {
		t.Error("comma in tag value accepted")
	}
	if err := s.Insert("m", nil, t0, nil); err == nil {
		t.Error("fieldless point accepted")
	}
	if err := s.Insert("m", nil, t0, map[string]float64{"bad field": 1}); err == nil {
		t.Error("space in field name accepted")
	}
}

func TestOutOfOrderInsertKeptSorted(t *testing.T) {
	s := NewStore()
	times := []int{5, 1, 3, 2, 4, 0}
	for _, h := range times {
		s.Insert("m", nil, t0.Add(time.Duration(h)*time.Hour), map[string]float64{"v": float64(h)})
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})[0]
	for i := 1; i < len(got.Points); i++ {
		if got.Points[i].Time.Before(got.Points[i-1].Time) {
			t.Fatalf("points not sorted: %v", got.Points)
		}
	}
	if got.Points[0].Fields["v"] != 0 || got.Points[5].Fields["v"] != 5 {
		t.Error("sorted values wrong")
	}
}

func TestSeparateSeriesPerTagSet(t *testing.T) {
	s := NewStore()
	s.Insert("m", Tags{"a": "1"}, t0, map[string]float64{"v": 1})
	s.Insert("m", Tags{"a": "2"}, t0, map[string]float64{"v": 2})
	s.Insert("m", Tags{"a": "1", "b": "x"}, t0, map[string]float64{"v": 3})
	if s.SeriesCount() != 3 {
		t.Errorf("series = %d, want 3", s.SeriesCount())
	}
	if got := s.Query("m", Tags{"a": "1"}, time.Time{}, time.Time{}); len(got) != 2 {
		t.Errorf("partial tag match returned %d series", len(got))
	}
}

func TestFieldValues(t *testing.T) {
	s := NewStore()
	s.Insert("m", Tags{"a": "1"}, t0, map[string]float64{"v": 1})
	s.Insert("m", Tags{"a": "2"}, t0, map[string]float64{"v": 2, "w": 9})
	vals := FieldValues(s.Query("m", nil, time.Time{}, time.Time{}), "v")
	if len(vals) != 2 {
		t.Errorf("FieldValues = %v", vals)
	}
	if len(FieldValues(s.Query("m", nil, time.Time{}, time.Time{}), "nope")) != 0 {
		t.Error("missing field returned values")
	}
}

func TestGroupByTime(t *testing.T) {
	s := NewStore()
	// Two points per hour for 4 hours.
	for h := 0; h < 4; h++ {
		for m := 0; m < 2; m++ {
			s.Insert("m", nil, t0.Add(time.Duration(h)*time.Hour+time.Duration(m*20)*time.Minute),
				map[string]float64{"v": float64(h*10 + m)})
		}
	}
	sr := s.Query("m", nil, time.Time{}, time.Time{})[0]
	buckets := GroupByTime(sr, "v", time.Hour, AggMax)
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	for i, b := range buckets {
		if b.N != 2 {
			t.Errorf("bucket %d N = %d", i, b.N)
		}
		if b.Value != float64(i*10+1) {
			t.Errorf("bucket %d max = %v", i, b.Value)
		}
	}
	// Mean and min aggregators.
	if b := GroupByTime(sr, "v", time.Hour, AggMean); b[0].Value != 0.5 {
		t.Errorf("mean = %v", b[0].Value)
	}
	if b := GroupByTime(sr, "v", time.Hour, AggMin); b[3].Value != 30 {
		t.Errorf("min = %v", b[3].Value)
	}
	if GroupByTime(sr, "v", 0, AggMean) != nil {
		t.Error("zero window should return nil")
	}
}

// Regression: windows under one second used to compute bucket starts with
// int64(window.Seconds()) == 0 and panic with an integer divide by zero.
func TestGroupByTimeSubSecondWindow(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Insert("m", nil, t0.Add(time.Duration(i)*100*time.Millisecond),
			map[string]float64{"v": float64(i)})
	}
	sr := s.Query("m", nil, time.Time{}, time.Time{})[0]
	buckets := GroupByTime(sr, "v", 250*time.Millisecond, AggMean)
	// Points at 0..700 ms in 250 ms windows: [0,250) [250,500) [500,750).
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	for i, b := range buckets {
		want := t0.Add(time.Duration(i) * 250 * time.Millisecond)
		if !b.Start.Equal(want) {
			t.Errorf("bucket %d start = %v, want %v", i, b.Start, want)
		}
	}
	if buckets[0].N != 3 || buckets[1].N != 2 { // 0,100,200 ms then 300,400 ms
		t.Errorf("bucket sizes = %d, %d, want 3, 2", buckets[0].N, buckets[1].N)
	}
}

// Pre-epoch points round down to their window start (floored modulo), not
// toward zero.
func TestGroupByTimePreEpochFloors(t *testing.T) {
	s := NewStore()
	at := time.Unix(-90, 0).UTC() // 90 s before the epoch
	s.Insert("m", nil, at, map[string]float64{"v": 1})
	sr := s.Query("m", nil, time.Time{}, time.Time{})[0]
	buckets := GroupByTime(sr, "v", time.Minute, AggMean)
	if len(buckets) != 1 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if want := time.Unix(-120, 0).UTC(); !buckets[0].Start.Equal(want) {
		t.Errorf("bucket start = %v, want %v", buckets[0].Start, want)
	}
}

// Regression: Query used to return the store's own Tags and Point.Fields
// maps, so callers mutating a result silently corrupted stored samples.
func TestQueryResultsDoNotAliasStore(t *testing.T) {
	s := NewStore()
	tags := Tags{"server": "7"}
	if err := s.Insert("m", tags, t0, map[string]float64{"mbps": 100}); err != nil {
		t.Fatal(err)
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})
	if len(got) != 1 {
		t.Fatalf("query returned %d series", len(got))
	}
	got[0].Tags["server"] = "evil"
	got[0].Tags["extra"] = "x"
	got[0].Points[0].Fields["mbps"] = -1
	got[0].Points[0].Fields["injected"] = 42

	again := s.Query("m", nil, time.Time{}, time.Time{})
	if len(again) != 1 {
		t.Fatalf("re-query returned %d series", len(again))
	}
	if v := again[0].Tags["server"]; v != "7" {
		t.Errorf("stored tag mutated through query result: server = %q", v)
	}
	if _, ok := again[0].Tags["extra"]; ok {
		t.Error("tag added through query result reached the store")
	}
	if v := again[0].Points[0].Fields["mbps"]; v != 100 {
		t.Errorf("stored field mutated through query result: mbps = %v", v)
	}
	if _, ok := again[0].Points[0].Fields["injected"]; ok {
		t.Error("field added through query result reached the store")
	}
}

func TestLineProtocolRoundTrip(t *testing.T) {
	s := NewStore()
	s.Insert("throughput", Tags{"server": "7", "tier": "premium"}, t0, map[string]float64{"mbps": 312.25, "loss": 0.001})
	s.Insert("throughput", Tags{"server": "7", "tier": "standard"}, t0.Add(time.Hour), map[string]float64{"mbps": 355})
	s.Insert("latency", nil, t0, map[string]float64{"rtt_ms": 42.5})

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SeriesCount() != 3 {
		t.Fatalf("round trip series = %d", got.SeriesCount())
	}
	q := got.Query("throughput", Tags{"tier": "premium"}, time.Time{}, time.Time{})
	if len(q) != 1 || q[0].Points[0].Fields["mbps"] != 312.25 || q[0].Points[0].Fields["loss"] != 0.001 {
		t.Errorf("round trip lost data: %+v", q)
	}
	if !q[0].Points[0].Time.Equal(t0) {
		t.Errorf("timestamp = %v", q[0].Points[0].Time)
	}
	// Serialisation is canonical: write(read(x)) == x.
	var buf2 bytes.Buffer
	got.WriteTo(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("serialisation not canonical")
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",
		"onlymeasurement",
		"m,badtag v=1",
		"m v=notafloat",
		"m v=1 notatimestamp",
		"m v=1 1 2 3",
		",empty v=1",
	}
	for _, line := range bad {
		if line == "" {
			continue
		}
		if _, _, _, _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q): want error", line)
		}
	}
	// Timestampless line is valid.
	m, tags, fields, ts, err := ParseLine("cpu,host=a util=0.5")
	if err != nil || m != "cpu" || tags["host"] != "a" || fields["util"] != 0.5 || !ts.IsZero() {
		t.Errorf("ParseLine = %v %v %v %v %v", m, tags, fields, ts, err)
	}
}

func TestReadComments(t *testing.T) {
	src := "# header\n\ncpu util=1 1000\n"
	s, err := Read(bytes.NewReader([]byte(src)))
	if err != nil || s.SeriesCount() != 1 {
		t.Errorf("Read with comments: %v, series %d", err, s.SeriesCount())
	}
}

// Property: random stores round-trip through the line protocol.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		for i := 0; i < 30; i++ {
			tags := Tags{"s": string(rune('a' + rng.Intn(5)))}
			at := t0.Add(time.Duration(rng.Intn(1000)) * time.Minute)
			s.Insert("m", tags, at, map[string]float64{"v": rng.Float64() * 1000})
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			return false
		}
		return bytes.Equal(buf.Bytes(), buf2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the line protocol round-trips the edge cases scenario fixtures
// lean on — negative and zero (epoch) timestamps, g-format float fields
// down to tiny exponents (1e-07 and friends), multi-field points, and
// tag-less series. WriteTo → Read must preserve every parsed value exactly,
// and a second WriteTo must be byte-identical (canonical serialisation).
func TestRoundTripEdgeCasesProperty(t *testing.T) {
	fieldNames := []string{"v", "mbps", "rtt_ms", "loss"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		for i := 0; i < 40; i++ {
			var tags Tags
			if rng.Intn(3) > 0 { // one third of points land in tag-less series
				tags = Tags{"s": string(rune('a' + rng.Intn(3)))}
			}
			// Timestamps straddle the epoch: negative, zero and positive
			// nanosecond counts all occur.
			at := time.Unix(0, rng.Int63n(2_000_000)-1_000_000).UTC()
			if i == 0 {
				at = time.Unix(0, 0).UTC()
			}
			fields := make(map[string]float64)
			for _, fn := range fieldNames[:1+rng.Intn(len(fieldNames))] {
				v := rng.NormFloat64() * 1e3
				switch rng.Intn(4) {
				case 0:
					v = rng.Float64() * 1e-7 // forces 'g' exponent form, e.g. 1e-08
				case 1:
					v = 1e-07
				case 2:
					v = -v
				}
				fields[fn] = v
			}
			if err := s.Insert("m", tags, at, fields); err != nil {
				t.Logf("seed %d: insert: %v", seed, err)
				return false
			}
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		// Value-level check, not just textual: every queried point survives
		// with bit-exact fields and timestamps.
		want := s.Query("m", nil, time.Time{}, time.Time{})
		have := got.Query("m", nil, time.Time{}, time.Time{})
		if !reflect.DeepEqual(want, have) {
			t.Logf("seed %d: queried series diverged after round trip", seed)
			return false
		}
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			return false
		}
		return bytes.Equal(buf.Bytes(), buf2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentInsert hammers one store from many goroutines; under -race
// it verifies the locking, and the final counts verify no point was lost.
func TestConcurrentInsert(t *testing.T) {
	s := NewStore()
	const goroutines, points = 8, 100
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tags := Tags{"worker": string(rune('a' + g))}
			for i := 0; i < points; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				if err := s.Insert("m", tags, at, map[string]float64{"v": float64(i)}); err != nil {
					errs[g] = err
					return
				}
				// Interleave reads with writes.
				if i%10 == 0 {
					s.Query("m", tags, time.Time{}, time.Time{})
					s.SeriesCount()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.SeriesCount() != goroutines {
		t.Errorf("series = %d, want %d", s.SeriesCount(), goroutines)
	}
	for g := 0; g < goroutines; g++ {
		got := s.Query("m", Tags{"worker": string(rune('a' + g))}, time.Time{}, time.Time{})
		if len(got) != 1 || len(got[0].Points) != points {
			t.Errorf("worker %d: lost points: %d series", g, len(got))
		}
	}
}

func TestAggPercentile(t *testing.T) {
	agg := AggPercentile(95)
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := agg(xs)
	if got < 9.5 || got > 10 {
		t.Errorf("p95 = %v", got)
	}
	if v := AggPercentile(0)(xs); v != 1 {
		t.Errorf("p0 = %v", v)
	}
	if v := AggPercentile(100)(xs); v != 10 {
		t.Errorf("p100 = %v", v)
	}
	if v := AggPercentile(50)([]float64{7}); v != 7 {
		t.Errorf("single-sample median = %v", v)
	}
	// Out-of-range percentiles clamp.
	if v := AggPercentile(-5)(xs); v != 1 {
		t.Errorf("clamped low = %v", v)
	}
	if v := AggPercentile(200)(xs); v != 10 {
		t.Errorf("clamped high = %v", v)
	}
}

func TestGroupByTimeWithPercentile(t *testing.T) {
	s := NewStore()
	for m := 0; m < 60; m++ {
		s.Insert("tput", nil, t0.Add(time.Duration(m)*time.Minute), map[string]float64{"mbps": float64(m)})
	}
	sr := s.Query("tput", nil, time.Time{}, time.Time{})[0]
	buckets := GroupByTime(sr, "mbps", time.Hour, AggPercentile(95))
	if len(buckets) != 1 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Value < 55 || buckets[0].Value > 59 {
		t.Errorf("hourly p95 = %v", buckets[0].Value)
	}
}

func TestAggregatorsEmptyInput(t *testing.T) {
	// Direct callers may hand aggregators an empty bucket; the built-ins
	// return 0 instead of NaN (AggMean) or panicking (the others).
	for name, agg := range map[string]Aggregator{
		"mean": AggMean, "max": AggMax, "min": AggMin, "p95": AggPercentile(95),
	} {
		if v := agg(nil); v != 0 {
			t.Errorf("%s(nil) = %v, want 0", name, v)
		}
		if v := agg([]float64{}); v != 0 {
			t.Errorf("%s(empty) = %v, want 0", name, v)
		}
	}
}

func TestAggPercentileScratchReuse(t *testing.T) {
	// The pooled scratch buffer must not leak state between calls or
	// mutate the caller's slice.
	agg := AggPercentile(50)
	xs := []float64{3, 1, 2}
	if v := agg(xs); v != 2 {
		t.Fatalf("median = %v", v)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
	if v := agg([]float64{10, 30}); v != 20 {
		t.Errorf("second call = %v (scratch leaked?)", v)
	}
	if v := agg([]float64{5}); v != 5 {
		t.Errorf("shrinking call = %v", v)
	}
}
