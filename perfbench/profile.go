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

// layers are the cpu.* rows: each is the share of CPU profile samples
// whose innermost repository frame lies in that layer. "interp" holds the
// interpreter and the application kernels it runs; "gc" holds samples
// with no repository frame at all (the garbage collector, the scheduler,
// idle network pollers); "other" holds the remaining packages (cluster,
// obs, harness, compiler, svc and the benchmark itself).
var layers = []string{"interp", "tmk", "vm", "adapt", "sim", "wire", "host", "gc", "other"}

// layerOf maps a stack, innermost function first, to its layer.
func layerOf(funcs []string) string {
	const internal = "sdsm/internal/"
	sawRepo := false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internal); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			switch pkg {
			case "interp", "apps":
				return "interp"
			case "tmk", "vm", "adapt", "sim", "wire", "host":
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "sdsm/") || strings.HasPrefix(fn, "main.") {
			sawRepo = true
		}
	}
	if sawRepo {
		return "other"
	}
	return "gc"
}

// layerSamples accumulates CPU profile samples by layer.
type layerSamples struct {
	by     map[string]int64
	total  int64
	period int64 // nanoseconds per sample
}

// add folds one gzipped pprof CPU profile, as runtime/pprof writes it,
// into the counts.
func (ls *layerSamples) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	if ls.by == nil {
		ls.by = map[string]int64{}
	}
	if p.period > 0 {
		ls.period = p.period
	}
	for _, s := range p.samples {
		ls.by[layerOf(s.funcs)] += s.count
		ls.total += s.count
	}
	return nil
}

func (ls *layerSamples) share(layer string) float64 {
	if ls.total == 0 {
		return 0
	}
	return float64(ls.by[layer]) / float64(ls.total)
}

// seconds is the CPU time sampled in a layer.
func (ls *layerSamples) seconds(layer string) float64 {
	return float64(ls.by[layer]*ls.period) / 1e9
}

// profile is the part of a pprof profile the layer shares need.
type profile struct {
	samples []sample
	period  int64
}

type sample struct {
	funcs []string // innermost first, inlined frames included
	count int64
}

// parseProfile decodes a gzipped profile.proto message: the samples'
// location ids and first value, each location's lines' function ids, each
// function's name, the string table and the sampling period. Everything
// else is skipped.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var raws []rawSample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]int64{}
	var strs []string
	p := &profile{}
	err = fields(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			first := true
			err := fields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					if first {
						if vs := appendVarints(nil, wt, v, b); len(vs) > 0 {
							s.count = int64(vs[0])
							first = false
						}
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
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
			var id uint64
			var name int64
			err := fields(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range raws {
		s := sample{count: r.count}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					s.funcs = append(s.funcs, strs[i])
				}
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and the varint value (wire type 0)
// or the payload bytes (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one varint
// (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
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
