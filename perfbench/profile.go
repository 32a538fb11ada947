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

// modulePrefix is the import path under which the repo's layers live.
const modulePrefix = "github.com/hybridmig/hybridmig/internal/"

// layers are the repo's modules a CPU sample can be attributed to, in report
// order. A sample whose innermost repo frame is in another internal package
// counts as "other"; one with no repo frame at all counts as "runtime".
var layers = []string{
	"sim", "flow", "fabric", "pfs", "chunk", "core", "guest", "hv",
	"workload", "scenario", "service", "runtime", "other",
}

// layerOf maps a function name to its layer, or "" when the function is
// not in a package under internal/.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers[:len(layers)-2] {
		if l == rest {
			return l
		}
	}
	return "other"
}

// cpuSplit is a CPU profile's time attributed to layers.
type cpuSplit struct {
	ns      map[string]int64 // CPU nanoseconds per layer
	samples map[string]int64 // sample count per layer
	total   int64            // CPU nanoseconds over all samples
}

func (s cpuSplit) seconds(layer string) float64 { return float64(s.ns[layer]) / 1e9 }

// attribute splits a gzipped pprof CPU profile across the layers, charging
// each sample to the innermost frame in a package under internal/.
func attribute(gz []byte) (cpuSplit, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return cpuSplit{}, err
	}
	split := cpuSplit{ns: map[string]int64{}, samples: map[string]int64{}}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l := layerOf(p.strings[p.functions[fn]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		split.ns[layer] += s.cpuNS
		split.samples[layer] += s.count
		split.total += s.cpuNS
	}
	return split, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations    []uint64 // leaf first
	count, cpuNS int64
}

// decodeProfile reads the profile.proto fields the attribution uses:
// samples (location ids and the count/cpu values), locations with their
// inlined lines, functions and the string table.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendPacked(s.locations, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) < 2 {
				return errors.New("profile: sample without count and cpu values")
			}
			s.count, s.cpuNS = values[0], values[1]
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", name)
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
