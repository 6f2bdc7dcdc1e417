// Package tsdb is CLASP's time-series store, standing in for InfluxDB: an
// in-memory series store with tagged points, sealed compressed blocks
// (block.go), time-range and tag queries, and an indexed block file for
// persistence (blockfile.go). It backs the telemetry self-store
// (internal/telemetry): one scraper inserts into it, and windowed history
// reads query it. Campaign records are analysed from in-memory slices and
// analysis.RecordLog instead.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// obsInserts counts accepted inserts (DESIGN.md §8); it no-ops while the
// obs registry is disabled.
var obsInserts = obs.Default().Counter("tsdb_inserts_total")

// Tags are the indexed dimensions of a series (server, region, tier,
// direction, ...). Values must not contain spaces or commas.
type Tags map[string]string

// canonical renders tags in sorted key=value form.
func (t Tags) canonical() string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteByte(',')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(t[k])
	}
	return b.String()
}

// Point is one timestamped observation with float fields.
type Point struct {
	Time   time.Time
	Fields map[string]float64
}

// Series is an ordered sequence of points for one measurement+tags. Inside
// the store, older points may live in sealed compressed blocks (see
// block.go) with Points holding only the mutable tail; series returned by
// Query always have everything decoded into Points.
type Series struct {
	Measurement string
	Tags        Tags
	Points      []Point  // mutable tail, kept sorted by time
	blocks      []*block // sealed runs preceding the tail, time-ordered
}

// Store is a thread-safe collection of series under one lock: Insert and
// DropBefore take it for writing; Query, SeriesCount, BlockStats and the
// snapshot behind WriteBlocks take it for reading.
type Store struct {
	mu            sync.RWMutex
	series        map[string]*Series
	sealThreshold int
}

// NewStore creates an empty store with sealing at DefaultSealThreshold.
func NewStore() *Store {
	return &Store{series: make(map[string]*Series), sealThreshold: DefaultSealThreshold}
}

// SetSealThreshold changes the tail length at which a series is sealed
// into a compressed block; 0 disables sealing (pure in-memory points, the
// pre-block behaviour). Call before concurrent use: the threshold is read
// without synchronisation on the insert path.
func (s *Store) SetSealThreshold(n int) {
	if n < 0 {
		n = 0
	}
	s.sealThreshold = n
}

// BlockStats reports the sealed state of the store: number of sealed
// blocks, points held inside them, and their total encoded bytes. Used by
// the compression benchmarks and tests.
func (s *Store) BlockStats() (blocks, points, bytes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sr := range s.series {
		for _, b := range sr.blocks {
			blocks++
			points += b.n
			bytes += len(b.data)
		}
	}
	return blocks, points, bytes
}

// DropBefore discards history older than cutoff and returns the number of
// points removed — the retention knob for long-lived self-telemetry stores.
// Granularity is deliberately coarse on the sealed side: a compressed block
// is dropped only when its entire time range precedes the cutoff (blocks
// are immutable; splitting one would mean decode + re-seal). The mutable
// tail drops its strict prefix of points before the cutoff. Series entries
// themselves are never removed, even when emptied: later inserts into the
// series land in the same entry, and SeriesCount keeps counting it.
func (s *Store) DropBefore(cutoff time.Time) int {
	cut := cutoff.UnixNano()
	dropped := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sr := range s.series {
		if len(sr.blocks) > 0 {
			keep := sr.blocks[:0:0] // fresh backing; snapshots may share the old one
			for _, b := range sr.blocks {
				if b.maxNs < cut {
					dropped += b.n
					continue
				}
				keep = append(keep, b)
			}
			sr.blocks = keep
		}
		idx := sort.Search(len(sr.Points), func(j int) bool { return !sr.Points[j].Time.Before(cutoff) })
		if idx > 0 {
			dropped += idx
			sr.Points = append(sr.Points[:0:0], sr.Points[idx:]...)
		}
	}
	return dropped
}

func seriesKey(measurement string, tags Tags) string {
	return measurement + tags.canonical()
}

func validateIdent(s string) error {
	if s == "" {
		return fmt.Errorf("tsdb: empty identifier")
	}
	if strings.ContainsAny(s, " ,=\n") {
		return fmt.Errorf("tsdb: identifier %q contains reserved characters", s)
	}
	return nil
}

// Insert adds a point. Fields are copied.
func (s *Store) Insert(measurement string, tags Tags, at time.Time, fields map[string]float64) error {
	if err := validateIdent(measurement); err != nil {
		return err
	}
	for k, v := range tags {
		if err := validateIdent(k); err != nil {
			return err
		}
		if err := validateIdent(v); err != nil {
			return err
		}
	}
	if len(fields) == 0 {
		return fmt.Errorf("tsdb: point without fields")
	}
	for k := range fields {
		if err := validateIdent(k); err != nil {
			return err
		}
	}
	cp := make(map[string]float64, len(fields))
	for k, v := range fields {
		cp[k] = v
	}
	key := seriesKey(measurement, tags)
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[key]
	if sr == nil {
		tcp := make(Tags, len(tags))
		for k, v := range tags {
			tcp[k] = v
		}
		sr = &Series{Measurement: measurement, Tags: tcp}
		s.series[key] = sr
	}
	sr.insertSealed(Point{Time: at, Fields: cp}, s.sealThreshold)
	obsInserts.Inc()
	return nil
}

// insertPoint adds a point keeping Points time-sorted. Callers hold the
// store's write lock.
func (sr *Series) insertPoint(p Point) {
	at := p.Time
	// Fast path: append in time order.
	if n := len(sr.Points); n == 0 || !at.Before(sr.Points[n-1].Time) {
		sr.Points = append(sr.Points, p)
		return
	}
	idx := sort.Search(len(sr.Points), func(i int) bool { return sr.Points[i].Time.After(at) })
	sr.Points = append(sr.Points, Point{})
	copy(sr.Points[idx+1:], sr.Points[idx:])
	sr.Points[idx] = p
}

// SeriesCount returns the number of distinct series.
func (s *Store) SeriesCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// Query selects points from series of a measurement whose tags match all
// entries of `match` (empty matches everything) within [from, to).
// Zero times disable that bound. Results are grouped per series, sorted by
// series key.
//
// The returned series are deep copies: Tags and every Point.Fields map are
// owned by the caller, so mutating a query result never corrupts stored
// samples (pinned by TestQueryResultsDoNotAliasStore).
func (s *Store) Query(measurement string, match Tags, from, to time.Time) []Series {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0)
	for k, sr := range s.series {
		if sr.Measurement == measurement && matchTags(sr.Tags, match) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []Series
	for _, k := range keys {
		sr := s.series[k]
		pts := sr.appendBlockPoints(nil, from, to)
		for _, p := range sr.Points {
			if !inRange(p.Time, from, to) {
				continue
			}
			fields := make(map[string]float64, len(p.Fields))
			for fk, fv := range p.Fields {
				fields[fk] = fv
			}
			pts = append(pts, Point{Time: p.Time, Fields: fields})
		}
		if len(pts) == 0 {
			continue
		}
		tags := make(Tags, len(sr.Tags))
		for tk, tv := range sr.Tags {
			tags[tk] = tv
		}
		out = append(out, Series{Measurement: sr.Measurement, Tags: tags, Points: pts})
	}
	return out
}

// matchTags reports whether tags carries every entry of match.
func matchTags(tags, match Tags) bool {
	for mk, mv := range match {
		if tags[mk] != mv {
			return false
		}
	}
	return true
}

// inRange reports whether t lies in [from, to); zero bounds disable.
func inRange(t, from, to time.Time) bool {
	return (from.IsZero() || !t.Before(from)) && (to.IsZero() || t.Before(to))
}

// appendBlockPoints decodes the series' sealed blocks overlapping
// [from, to) into dst. Decoded points carry fresh field maps, so Query
// need not copy them. Callers hold at least the store's read lock.
func (sr *Series) appendBlockPoints(dst []Point, from, to time.Time) []Point {
	for _, b := range sr.blocks {
		if overlaps(b.minNs, b.maxNs, from, to) {
			dst = b.appendPoints(dst, from, to)
		}
	}
	return dst
}

// seriesSnap is a point-in-time copy of one series taken under the store's
// read lock: blocks are immutable and shared, tail Point structs are copied
// (insertions memmove the live slice) while their Fields maps are shared
// (never mutated after insert).
type seriesSnap struct {
	key    string
	blocks []*block
	tail   []Point
}

// snapshotSeries copies every series under one read lock, so the snapshot
// is one consistent store state; encoding it then runs without the lock
// (pinned by the -race test TestWriteBlocksConcurrentWithInserts).
func (s *Store) snapshotSeries() []seriesSnap {
	s.mu.RLock()
	snaps := make([]seriesSnap, 0, len(s.series))
	for k, sr := range s.series {
		snaps = append(snaps, seriesSnap{
			key:    k,
			blocks: append([]*block(nil), sr.blocks...),
			tail:   append([]Point(nil), sr.Points...),
		})
	}
	s.mu.RUnlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].key < snaps[j].key })
	return snaps
}
