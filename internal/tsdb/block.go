// Sealed columnar blocks: when a series' mutable tail exceeds the store's
// seal threshold, the tail is frozen into an immutable compressed block —
// delta-of-delta varint timestamps plus one Gorilla XOR float column per
// field (see internal/colenc). The in-memory store stays the write head;
// queries decode blocks on the fly, losslessly.
//
// Sealed-block purity invariant: encode(points) followed by decode is
// bit-identical to the input — timestamps to the nanosecond (normalised to
// UTC) and field values to the IEEE-754 bit pattern, pinned by the
// round-trip property tests and fuzzer in block_test.go. Nothing
// downstream (Query, WriteBlocks, BlockFile.Query) can observe whether a
// series was sealed, except through memory use.

package tsdb

import (
	"fmt"
	"sort"
	"time"

	"github.com/clasp-measurement/clasp/internal/colenc"
)

// DefaultSealThreshold is the tail length at which NewStore seals a series
// into a compressed block. At hourly campaign cadence one block holds ~21
// days of one pair's samples.
const DefaultSealThreshold = 512

// block is one immutable compressed run of points. Blocks of a series are
// time-ordered and non-overlapping: every point in block i+1 is at or
// after every point in block i, and the mutable tail follows the last
// block. All fields are read-only after encodeBlock returns, so blocks may
// be shared across snapshots without locks.
type block struct {
	n            int
	minNs, maxNs int64 // UnixNano of first and last point
	data         []byte
}

// Layout of block.data (all integers varint unless noted):
//
//	uvarint pointCount
//	uvarint fieldCount, then fieldCount × (uvarint nameLen, name bytes),
//	  names sorted ascending
//	timestamp column: delta-of-delta zigzag varints (colenc.AppendTimes)
//	fieldCount × field column:
//	  presence byte: 1 = every point carries the field,
//	                 0 = ceil(n/8)-byte bitmap follows (bit 7-i%8 of
//	                     byte i/8 set when point i carries the field)
//	  value column: uvarint byte length + Gorilla XOR bit stream of the
//	                present values in point order (colenc.AppendFloats)

// encodeBlock seals a time-sorted run of points. Points and their field
// maps are only read.
func encodeBlock(points []Point) *block {
	n := len(points)
	b := &block{
		n:     n,
		minNs: points[0].Time.UnixNano(),
		maxNs: points[n-1].Time.UnixNano(),
	}
	// Field union, sorted for deterministic layout.
	fieldSet := make(map[string]bool)
	for i := range points {
		for f := range points[i].Fields {
			fieldSet[f] = true
		}
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)

	buf := make([]byte, 0, 16*n/4+64)
	buf = colenc.AppendUvarint(buf, uint64(n))
	buf = colenc.AppendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = colenc.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	ts := make([]int64, n)
	for i := range points {
		ts[i] = points[i].Time.UnixNano()
	}
	buf = colenc.AppendTimes(buf, ts)
	vals := make([]float64, 0, n)
	for _, f := range fields {
		vals = vals[:0]
		missing := false
		for i := range points {
			if v, ok := points[i].Fields[f]; ok {
				vals = append(vals, v)
			} else {
				missing = true
			}
		}
		if !missing {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
			bitmap := make([]byte, (n+7)/8)
			for i := range points {
				if _, ok := points[i].Fields[f]; ok {
					bitmap[i/8] |= 1 << (7 - i%8)
				}
			}
			buf = append(buf, bitmap...)
		}
		buf = colenc.AppendFloats(buf, vals)
	}
	b.data = buf
	return b
}

// appendPoints decodes the block into dst, keeping only points within
// [from, to) (zero bounds disable). Decoded points carry fresh field maps,
// so callers own them outright. Decode never fails on data produced by
// encodeBlock; a corrupt buffer (possible via OpenBlockFile) panics with a
// tsdb-prefixed message, matching the parse-time validation the block file
// reader performs.
func (b *block) appendPoints(dst []Point, from, to time.Time) []Point {
	pts, err := b.decode(nil)
	if err != nil {
		panic(fmt.Sprintf("tsdb: corrupt block: %v", err))
	}
	for i := range pts {
		if inRange(pts[i].Time, from, to) {
			dst = append(dst, pts[i])
		}
	}
	return dst
}

// overlaps reports whether a block spanning [minNs, maxNs] can hold points
// in [from, to); zero bounds disable.
func overlaps(minNs, maxNs int64, from, to time.Time) bool {
	return (from.IsZero() || maxNs >= from.UnixNano()) && (to.IsZero() || minNs < to.UnixNano())
}

// decode reconstructs the block's points, appending to dst. Every point
// gets a freshly allocated Fields map; timestamps come back in UTC.
func (b *block) decode(dst []Point) ([]Point, error) {
	buf := b.data
	n64, k := colenc.Uvarint(buf)
	if k == 0 {
		return nil, fmt.Errorf("truncated block header")
	}
	buf = buf[k:]
	n := int(n64)
	if n != b.n {
		return nil, fmt.Errorf("block count mismatch: header %d, index %d", n, b.n)
	}
	fc64, k := colenc.Uvarint(buf)
	if k == 0 {
		return nil, fmt.Errorf("truncated field count")
	}
	buf = buf[k:]
	fields := make([]string, int(fc64))
	for i := range fields {
		ln, k := colenc.Uvarint(buf)
		if k == 0 || uint64(len(buf)-k) < ln {
			return nil, fmt.Errorf("truncated field name")
		}
		fields[i] = string(buf[k : k+int(ln)])
		buf = buf[k+int(ln):]
	}
	ts, k, err := colenc.DecodeTimes(make([]int64, 0, n), buf, n)
	if err != nil {
		return nil, err
	}
	buf = buf[k:]

	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, Point{
			Time:   time.Unix(0, ts[i]).UTC(),
			Fields: make(map[string]float64, len(fields)),
		})
	}
	var vals []float64
	for _, f := range fields {
		if len(buf) == 0 {
			return nil, fmt.Errorf("truncated presence flag for %q", f)
		}
		flag := buf[0]
		buf = buf[1:]
		var bitmap []byte
		count := n
		switch flag {
		case 1:
		case 0:
			bl := (n + 7) / 8
			if len(buf) < bl {
				return nil, fmt.Errorf("truncated presence bitmap for %q", f)
			}
			bitmap = buf[:bl]
			buf = buf[bl:]
			count = 0
			for i := 0; i < n; i++ {
				if bitmap[i/8]&(1<<(7-i%8)) != 0 {
					count++
				}
			}
		default:
			return nil, fmt.Errorf("bad presence flag %d for %q", flag, f)
		}
		vals, k, err = colenc.DecodeFloats(vals, buf, count)
		if err != nil {
			return nil, err
		}
		buf = buf[k:]
		vi := 0
		for i := 0; i < n; i++ {
			if bitmap != nil && bitmap[i/8]&(1<<(7-i%8)) == 0 {
				continue
			}
			dst[base+i].Fields[f] = vals[vi]
			vi++
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after block", len(buf))
	}
	return dst, nil
}

// --- Series seal/reopen --------------------------------------------------------

// sealedPoints returns the number of points held in sealed blocks.
func (sr *Series) sealedPoints() int {
	n := 0
	for _, b := range sr.blocks {
		n += b.n
	}
	return n
}

// seal freezes the entire tail into one compressed block. Callers hold the
// store's write lock and guarantee a non-empty, time-sorted tail.
func (sr *Series) seal() {
	sr.blocks = append(sr.blocks, encodeBlock(sr.Points))
	sr.Points = nil
}

// reopen decodes every sealed block back into the mutable tail — the rare
// path taken when a point arrives before the sealed range (out-of-order
// ingest across a seal boundary). Blocks are ordered and the tail follows
// them, so concatenation preserves time order.
func (sr *Series) reopen() {
	pts := make([]Point, 0, sr.sealedPoints()+len(sr.Points))
	for _, b := range sr.blocks {
		var err error
		pts, err = b.decode(pts)
		if err != nil {
			panic(fmt.Sprintf("tsdb: corrupt block: %v", err))
		}
	}
	pts = append(pts, sr.Points...)
	sr.blocks = nil
	sr.Points = pts
}

// insertSealed adds a point to a series that may carry sealed blocks,
// sealing the tail when it reaches threshold (0 disables sealing). Callers
// hold the store's write lock.
func (sr *Series) insertSealed(p Point, threshold int) {
	if n := len(sr.blocks); n > 0 && p.Time.UnixNano() < sr.blocks[n-1].maxNs {
		sr.reopen()
	}
	sr.insertPoint(p)
	if threshold > 0 && len(sr.Points) >= threshold {
		sr.seal()
	}
}
