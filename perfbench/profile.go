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

// layers are the simulator packages whose self CPU the traced run reports,
// plus the Go runtime. Each is a `<layer>.cpu_s` metric.
var layers = []string{"sim", "netsim", "tcp", "routing", "core", "fluid", "workload", "stats", "topo", "experiments", "runtime"}

// layerOf maps a profiled function name to its layer: the package under
// flowbender/internal (runpool counted as experiments), "runtime" for the
// Go runtime, and "other" for everything else, the benchmark itself and the
// rest of the standard library included.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "flowbender/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "runpool" {
			pkg = "experiments"
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and sums each sample's CPU time into the layer of the function it was
// taken in (the innermost frame, inlined frames included: pprof's "flat").
// It returns nanoseconds per layer and the total.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	// profile.proto field numbers.
	const (
		profSampleType, profSample, profLocation, profFunction, profString = 1, 2, 4, 5, 6
		sampleLocation, sampleValue                                        = 1, 2
		locID, locLine                                                     = 1, 4
		lineFunction                                                       = 1
		fnID, fnName                                                       = 1, 2
		valueTypeType                                                      = 1
	)
	var (
		strs       []string
		valueTypes [][]byte
		samples    [][]byte
		leafFn     = map[uint64]uint64{} // location id -> innermost function id
		fnNameIdx  = map[uint64]uint64{} // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profString:
			strs = append(strs, string(b))
		case profSampleType:
			valueTypes = append(valueTypes, b)
		case profSample:
			samples = append(samples, b)
		case profLocation:
			var id, fn uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == locID:
					id = v
				case num == locLine && fn == 0: // lines run innermost first
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fnID:
					id = v
				case fnName:
					name = v
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	// The CPU-time value is the sample type whose unit is nanoseconds.
	cpuIdx := -1
	for i, vt := range valueTypes {
		var typ uint64
		if err := eachField(vt, func(num int, v uint64, _ []byte) error {
			if num == valueTypeType {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		if typ < uint64(len(strs)) && strs[typ] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, 0, errors.New("profile: no cpu sample type")
	}

	perLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		var locs, vals []uint64
		if err := eachField(s, func(num int, v uint64, b []byte) error {
			switch num {
			case sampleLocation:
				return appendVarints(&locs, v, b)
			case sampleValue:
				return appendVarints(&vals, v, b)
			}
			return nil
		}); err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		if len(locs) == 0 || cpuIdx >= len(vals) {
			continue
		}
		name := ""
		if si := fnNameIdx[leafFn[locs[0]]]; si < uint64(len(strs)) {
			name = strs[si]
		}
		ns := int64(vals[cpuIdx])
		perLayer[layerOf(name)] += ns
		total += ns
	}
	return perLayer, total, nil
}

// eachField calls f for every field of the protobuf message b: the field
// number, the value of a varint or fixed-width field, and the payload of a
// length-delimited one.
func eachField(b []byte, f func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// encoded unpacked, every varint of payload when packed.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
