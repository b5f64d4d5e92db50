package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuShares runs fn under a CPU profile the benchmark starts and stops
// itself and returns the share of self samples per bucket (see bucketOf),
// in percent, plus the sample count. It is the only per-layer view that
// reaches inside fleet.Run, whose engines the benchmark cannot step.
func cpuShares(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	counts, err := selfSamples(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("decode CPU profile: %w", err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	shares := map[string]float64{}
	for fn, c := range counts {
		shares[bucketOf(fn)] += 100 * float64(c) / float64(total)
	}
	return shares, total, nil
}

// bucketOf maps a function name to the layer that owns it: the package
// under repro/internal/, "runtime" for the Go runtime (GC and scheduler
// included), "other" for the rest (the benchmark itself, math, sort, …).
func bucketOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold package paths of their own
	}
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// selfSamples decodes a pprof CPU profile (gzipped profile.proto) far
// enough to count samples by leaf function name. Only the fields that
// needs are read: Profile.sample/location/function/string_table,
// Sample.location_id/value, Location.id/line, Line.function_id,
// Function.id/name. An in-tree decoder because the module has no
// dependencies and `go tool pprof` is not part of a deployed binary.
func selfSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	leafFunc := map[uint64]uint64{} // location id → innermost function id
	funcName := map[uint64]uint64{} // function id → string index
	var strs []string
	err = pbFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var haveLeaf, haveCount bool
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				vals := []uint64{v}
				if data != nil {
					var err error
					if vals, err = pbPacked(data); err != nil {
						return err
					}
				}
				if len(vals) == 0 {
					return nil
				}
				switch {
				case num == 1 && !haveLeaf: // location_id: leaf first
					s.leaf, haveLeaf = vals[0], true
				case num == 2 && !haveCount: // value: sample count first
					s.count, haveCount = int64(vals[0]), true
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLeaf {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // line: innermost inlined frame first
					haveLine = true
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcName[leafFunc[s.leaf]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

var errTruncated = fmt.Errorf("truncated protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbFields calls fn for every field of one message: v holds a varint or
// fixed value, data a length-delimited payload (nil otherwise).
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = rest
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, b, err = pbVarint(b); err != nil {
				return err
			}
		case 1, 5:
			n := 8
			if wire == 5 {
				n = 4
			}
			if len(b) < n {
				return errTruncated
			}
			for i := n - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[n:]
		case 2:
			var n uint64
			if n, b, err = pbVarint(b); err != nil {
				return err
			}
			if uint64(len(b)) < n {
				return errTruncated
			}
			data, b = b[:n:n], b[n:]
			if data == nil {
				data = []byte{}
			}
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbPacked(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}
