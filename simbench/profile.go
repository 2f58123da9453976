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

// repoPrefix marks the frames that belong to the simulator's own layers.
const repoPrefix = "grads/internal/"

// bgBucket receives samples with no repo frame on their stack: the GC's
// background workers, the scheduler, and the benchmark's own bookkeeping.
const bgBucket = "runtime.bg"

// cpuShares charges every sample of a CPU profile to exactly one bucket and
// returns CPU seconds per bucket. A sample's bucket is the package of its
// innermost frame under grads/internal/ (inlined frames included), so
// strconv work under perfmodel counts as perfmodel and mallocgc under
// metasched counts as metasched; samples with no such frame go to bgBucket.
func cpuShares(gzProfile []byte) (map[string]float64, error) {
	p, err := parseProfile(gzProfile)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if st == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile sample lacks its cpu value")
		}
		out[p.bucket(s.locs)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

func (p *profile) bucket(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			if pkg, ok := strings.CutPrefix(p.funcNames[fn], repoPrefix); ok {
				if i := strings.IndexByte(pkg, '.'); i > 0 {
					return pkg[:i]
				}
			}
		}
	}
	return bgBucket
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	sampleTypes []string // sample_type[i].type, resolved
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzip-compressed profile.proto, as written by
// runtime/pprof, with a minimal protobuf reader.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcNameIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.funcNames[id] = s
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either its varint value (wire types 0, 1 and 5, widened) or, for
// length-delimited fields, its bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, packed (data set) or not.
func varints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
