package tsdb

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// writeBlockFile spills s into dir and opens the result.
func writeBlockFile(t *testing.T, s *Store) *BlockFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.clbf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlocks(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bf, err := OpenBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	return bf
}

// TestBlockFileRoundTrip pins that a spilled store answers queries
// identically to the live one — full range, tag filters, and time bounds
// that cross block boundaries — with a mix of sealed blocks and unsealed
// tails on disk.
func TestBlockFileRoundTrip(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(16) // force several blocks plus a partial tail
	fillStores(t, 500, s)
	bf := writeBlockFile(t, s)

	if bf.SeriesCount() != s.SeriesCount() {
		t.Fatalf("series count %d, want %d", bf.SeriesCount(), s.SeriesCount())
	}

	from := time.Date(2020, 5, 3, 7, 0, 0, 0, time.UTC)
	to := time.Date(2020, 5, 5, 19, 0, 0, 0, time.UTC)
	cases := []struct {
		name     string
		match    Tags
		from, to time.Time
	}{
		{"all", nil, time.Time{}, time.Time{}},
		{"tag", Tags{"server": "b"}, time.Time{}, time.Time{}},
		{"range", nil, from, to},
		{"tag+range", Tags{"server": "a"}, from, to},
		{"no-match", Tags{"server": "zz"}, time.Time{}, time.Time{}},
	}
	for _, tc := range cases {
		want := s.Query("speedtest", tc.match, tc.from, tc.to)
		got, err := bf.Query("speedtest", tc.match, tc.from, tc.to)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: block file query differs from store", tc.name)
		}
	}
	if got, err := bf.Query("absent", nil, time.Time{}, time.Time{}); err != nil || got != nil {
		t.Fatalf("absent measurement: got %v, %v", got, err)
	}
}

// TestBlockFileUnsealedStore pins that WriteBlocks works on a store with
// sealing disabled: every tail becomes one transient block, without
// mutating the store.
func TestBlockFileUnsealedStore(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(0)
	fillStores(t, 120, s)
	bf := writeBlockFile(t, s)
	if b, p, _ := s.BlockStats(); b != 0 || p != 0 {
		t.Fatalf("WriteBlocks mutated the store: %d blocks / %d points", b, p)
	}
	want := s.Query("speedtest", nil, time.Time{}, time.Time{})
	got, err := bf.Query("speedtest", nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("block file query differs from store")
	}
}

func TestBlockFileEmptyStore(t *testing.T) {
	bf := writeBlockFile(t, NewStore())
	if bf.SeriesCount() != 0 {
		t.Fatalf("series count %d, want 0", bf.SeriesCount())
	}
	got, err := bf.Query("speedtest", nil, time.Time{}, time.Time{})
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestBlockFileCorruption pins that a damaged file fails to open or query
// with an error rather than a panic.
func TestBlockFileCorruption(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(8)
	fillStores(t, 60, s)
	var buf bytes.Buffer
	if _, err := s.WriteBlocks(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenBlockFile(write("short", raw[:10])); err == nil {
		t.Fatal("truncated file should not open")
	}
	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0xff
	if _, err := OpenBlockFile(write("magic", badMagic)); err == nil {
		t.Fatal("bad magic should not open")
	}
	noTrailer := raw[:len(raw)-4]
	if _, err := OpenBlockFile(write("trailer", noTrailer)); err == nil {
		t.Fatal("bad trailer should not open")
	}
}

// TestBlockFilePartialRejection sweeps truncation points over a valid
// block file: no strict prefix — a file cut short by a crash mid-write —
// may open successfully. Together with WriteBlocksFile's atomic rename
// this pins the crash-safety contract: a reader sees either a complete
// file or an open error, never silently partial data.
func TestBlockFilePartialRejection(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(8)
	fillStores(t, 60, s)
	var buf bytes.Buffer
	if _, err := s.WriteBlocks(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	dir := t.TempDir()
	p := filepath.Join(dir, "partial.clbf")
	for cut := 0; cut < len(raw); cut += 7 {
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if bf, err := OpenBlockFile(p); err == nil {
			bf.Close()
			t.Fatalf("file truncated to %d of %d bytes opened without error", cut, len(raw))
		}
	}
}

// TestWriteBlocksFileAtomic pins the crash-safe dump path: the file is
// complete and openable, a second dump replaces it in place, and no temp
// files survive either commit.
func TestWriteBlocksFileAtomic(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(16)
	fillStores(t, 120, s)
	dir := t.TempDir()
	path := filepath.Join(dir, "telemetry.clbf")
	for i := 0; i < 2; i++ { // second pass overwrites the first dump
		if err := s.WriteBlocksFile(path); err != nil {
			t.Fatal(err)
		}
		bf, err := OpenBlockFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bf.SeriesCount() != s.SeriesCount() {
			t.Fatalf("series count %d, want %d", bf.SeriesCount(), s.SeriesCount())
		}
		bf.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "telemetry.clbf" {
			t.Fatalf("dump left extra files: %v", entries)
		}
	}
}

// TestParseSeriesKey pins the key grammar the index relies on.
func TestParseSeriesKey(t *testing.T) {
	m, tags, err := parseSeriesKey(seriesKey("speedtest", Tags{"b": "2", "a": "1"}))
	if err != nil {
		t.Fatal(err)
	}
	if m != "speedtest" || !reflect.DeepEqual(tags, Tags{"a": "1", "b": "2"}) {
		t.Fatalf("got %q %v", m, tags)
	}
	if _, _, err := parseSeriesKey(",a=1"); err == nil {
		t.Fatal("empty measurement should fail")
	}
	if _, _, err := parseSeriesKey("m,broken"); err == nil {
		t.Fatal("bad tag should fail")
	}
}

// TestRoundTripProperty: random stores — several series, colliding and
// out-of-order timestamps, a random seal threshold — query identically
// after a WriteBlocks → OpenBlockFile round trip, and WriteBlocks is
// deterministic (two dumps of one store are byte-identical).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.SetSealThreshold([]int{0, 4, DefaultSealThreshold}[rng.Intn(3)])
		for i := 0; i < 30; i++ {
			tags := Tags{"s": string(rune('a' + rng.Intn(5)))}
			at := t0.Add(time.Duration(rng.Intn(1000)) * time.Minute)
			s.Insert("m", tags, at, map[string]float64{"v": rng.Float64() * 1000})
		}
		got, err := writeBlockFile(t, s).Query("m", nil, time.Time{}, time.Time{})
		if err != nil || !reflect.DeepEqual(got, s.Query("m", nil, time.Time{}, time.Time{})) {
			t.Logf("seed %d: block file query diverged (err %v)", seed, err)
			return false
		}
		var b1, b2 bytes.Buffer
		if _, err := s.WriteBlocks(&b1); err != nil {
			return false
		}
		if _, err := s.WriteBlocks(&b2); err != nil {
			return false
		}
		return bytes.Equal(b1.Bytes(), b2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripEdgeCasesProperty: the block file round-trips the value
// edge cases telemetry and scenario fixtures can produce — NaN (with
// payload), ±Inf, −0, denormals and tiny g-format exponents, timestamps
// before, at and after the epoch, multi-field and sparse points, several
// measurements, and tag-less series. Queried points must match the live
// store bit for bit.
func TestRoundTripEdgeCasesProperty(t *testing.T) {
	fieldNames := []string{"v", "mbps", "rtt_ms", "loss"}
	specials := []float64{
		math.Float64frombits(0x7ff8000000000001), math.NaN(),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, math.Float64frombits(0x000fffffffffffff), 1e-07,
	}
	measurements := []string{"m", "n"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.SetSealThreshold([]int{0, 4, DefaultSealThreshold}[rng.Intn(3)])
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
				if rng.Intn(2) == 0 && fn != "v" {
					continue // sparse: some points lack this field
				}
				v := rng.NormFloat64() * 1e3
				switch rng.Intn(4) {
				case 0:
					v = specials[rng.Intn(len(specials))]
				case 1:
					v = rng.Float64() * 1e-7
				case 2:
					v = -v
				}
				fields[fn] = v
			}
			if err := s.Insert(measurements[rng.Intn(len(measurements))], tags, at, fields); err != nil {
				t.Logf("seed %d: insert: %v", seed, err)
				return false
			}
		}
		bf := writeBlockFile(t, s)
		for _, m := range measurements {
			got, err := bf.Query(m, nil, time.Time{}, time.Time{})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !seriesEqual(got, s.Query(m, nil, time.Time{}, time.Time{})) {
				t.Logf("seed %d: %s series diverged after round trip", seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
