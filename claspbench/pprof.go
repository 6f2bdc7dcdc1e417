package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profile is the part of a pprof profile (profile.proto) the layer ledger
// needs: the sample types and, per sample, its values and its stack as
// function names, innermost first with inlined frames expanded.
type profile struct {
	sampleTypes []string // "type/unit", e.g. "cpu/nanoseconds"
	samples     []profSample
}

type profSample struct {
	values []int64
	stack  []string
}

// valueIndex returns the index of the sample type named typ, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzip-compressed or plain profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types     [][2]uint64 // (type, unit) string indexes
		raw       []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
		strs      []string
	)
	err := eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, s := range raw {
		ps := profSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For a varint field
// fn gets the value; for a length-delimited field it gets the bytes.
// Fixed-width fields are skipped: profile.proto has none the ledger reads.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("profile: truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field occurrence: a single
// value (unpacked encoding, b == nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

const repoPath = "github.com/clasp-measurement/clasp"

// moduleOf names the repository layer a function belongs to: the last
// element of its package path under internal/ ("tsdb", "ookla"),
// "cmd_<name>" for a command, "clasp" for the root package. It returns ""
// for a function outside the repository.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may name other packages
	}
	if strings.HasPrefix(fn, repoPath+".") {
		return "clasp"
	}
	if !strings.HasPrefix(fn, repoPath+"/") {
		return ""
	}
	rest := fn[len(repoPath)+1:]
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := rest[:slash+1+dot]
	if strings.HasPrefix(pkg, "cmd/") {
		return "cmd_" + pkg[len("cmd/"):]
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// isRecordLogFunc reports whether fn is part of analysis.RecordLog, the
// compressed spillable record log: its methods, its cursor and its codec.
func isRecordLogFunc(fn string) bool {
	if moduleOf(fn) != "analysis" {
		return false
	}
	for _, s := range []string{"RecordLog", "recordLog", "logCursor", "encodeRecords"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// unattributed is the ledger bucket for samples with no repository frame:
// garbage collection, the scheduler and runtime work no repo code called.
const unattributed = "gc"

// ledger attributes one profile value (CPU time or allocated bytes) to
// layers. Every sample goes to the module of its innermost repository
// frame, or to the unattributed bucket, so Self sums to Total.
type ledger struct {
	Total float64
	Self  map[string]float64
	// ColencBy splits colenc's self value by the nearest non-colenc
	// repository caller: "tsdb", "recordlog" (analysis.RecordLog) or the
	// caller's module name.
	ColencBy map[string]float64
	// RecordLogSelf is the analysis.RecordLog share of analysis's self value.
	RecordLogSelf float64
	// Prep and Checkpoint are inclusive: samples with any frame in
	// analysis.CampaignPrep, or any frame in package checkpoint.
	Prep, Checkpoint float64
}

// attribute builds the ledger of p's sample type typ ("cpu", "alloc_space").
func attribute(p *profile, typ string) (*ledger, error) {
	vi := p.valueIndex(typ)
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", typ, p.sampleTypes)
	}
	l := &ledger{Self: map[string]float64{}, ColencBy: map[string]float64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		l.Total += v
		inner := -1
		for i, fn := range s.stack {
			if moduleOf(fn) != "" {
				inner = i
				break
			}
		}
		if inner < 0 {
			l.Self[unattributed] += v
			continue
		}
		mod := moduleOf(s.stack[inner])
		l.Self[mod] += v
		switch mod {
		case "colenc":
			caller := "other"
			for _, fn := range s.stack[inner+1:] {
				if m := moduleOf(fn); m != "" && m != "colenc" {
					caller = m
					if isRecordLogFunc(fn) {
						caller = "recordlog"
					}
					break
				}
			}
			l.ColencBy[caller] += v
		case "analysis":
			if isRecordLogFunc(s.stack[inner]) {
				l.RecordLogSelf += v
			}
		}
		var prep, ckpt bool
		for _, fn := range s.stack[inner:] {
			prep = prep || strings.Contains(fn, "analysis.(*CampaignPrep)")
			ckpt = ckpt || moduleOf(fn) == "checkpoint"
		}
		if prep {
			l.Prep += v
		}
		if ckpt {
			l.Checkpoint += v
		}
	}
	return l, nil
}

// frac returns v as a share of the ledger total (0 for an empty ledger).
func (l *ledger) frac(v float64) float64 {
	if l.Total <= 0 {
		return 0
	}
	return v / l.Total
}

// modules returns the ledger's modules by descending self value.
func (l *ledger) modules() []string {
	ms := make([]string, 0, len(l.Self))
	for m := range l.Self {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if l.Self[ms[i]] != l.Self[ms[j]] {
			return l.Self[ms[i]] > l.Self[ms[j]]
		}
		return ms[i] < ms[j]
	})
	return ms
}
