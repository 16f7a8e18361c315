package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the per-layer CPU buckets, in report order. goruntime holds
// samples with no repository frame at all (GC, the scheduler); other
// holds samples whose repository frames all lie outside the named
// layers (the facade, this benchmark, helper packages).
var layers = []string{"sim", "realrt", "transport", "mds", "namespace", "journal",
	"rados", "client", "goruntime", "other"}

// layerOf maps every package under internal/ to the layer its CPU is
// charged to. A test fails when a package is missing, so a new package
// cannot drift into "other" unnoticed.
var layerOf = map[string]string{
	"sim":       "sim",
	"realrt":    "realrt",
	"transport": "transport",
	"mds":       "mds",
	"namespace": "namespace",
	"journal":   "journal",
	"rados":     "rados",
	"client":    "client",
	// The monitor is the metadata control plane (placement, grants).
	"monitor": "mds",
	// Op generators the library ships for clients.
	"workload": "client",
	// Helpers with no layer of their own.
	"runtime": "other",
	"policy":  "other",
	"model":   "other",
	"stats":   "other",
	"trace":   "other",
	"obs":     "other",
	"bench":   "other",
	"chaos":   "other",
}

const internalPrefix = "cudele/internal/"

// frameLayer classifies one function name: its layer when it belongs to
// an internal package, "" otherwise; repo reports whether the frame is
// repository code at all (internal, the facade, or this benchmark).
func frameLayer(fn string) (layer string, repo bool) {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if l, ok := layerOf[pkg]; ok {
			return l, true
		}
		return "other", true
	}
	return "", strings.HasPrefix(fn, "cudele.") || strings.HasPrefix(fn, "cudele/") ||
		strings.HasPrefix(fn, "main.")
}

// foldProfile charges each sample of a CPU profile (pprof protobuf,
// optionally gzipped) to the innermost frame that belongs to an internal
// package, and returns CPU nanoseconds per layer.
func foldProfile(data []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		layer, repo := "", false
	stack:
		for _, id := range s.locs { // leaf first
			for _, fid := range p.locs[id] { // innermost inlined frame first
				l, r := frameLayer(p.funcs[fid])
				repo = repo || r
				if l != "" {
					layer = l
					break stack
				}
			}
		}
		switch {
		case layer != "":
		case repo:
			layer = "other"
		default:
			layer = "goruntime"
		}
		out[layer] += s.value
	}
	return out, nil
}

// profile is the part of a pprof profile the fold reads.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]string   // function id -> name
}

type sample struct {
	locs  []uint64
	value int64 // CPU nanoseconds (or the last sample value)
}

// parseProfile decodes the pprof protobuf fields the fold needs.
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
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		rawSamples  []struct {
			locs []uint64
			vals []int64
		}
		funcNames = map[uint64]int64{}
		strs      []string
	)
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s struct {
				locs []uint64
				vals []int64
			}
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	for id, si := range funcNames {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcs[id] = strs[si]
	}
	vi := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		if st[0] >= 0 && st[0] < int64(len(strs)) && strs[st[0]] == "cpu" {
			vi = i
		}
	}
	for _, s := range rawSamples {
		if vi < 0 || vi >= len(s.vals) {
			return nil, errors.New("profile: sample without a value for its sample type")
		}
		p.samples = append(p.samples, sample{locs: s.locs, value: s.vals[vi]})
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding:
// packed (wire type 2) or one value per field.
func appendUints(dst *[]uint64, wireType int, v uint64, data []byte) error {
	if wireType == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
