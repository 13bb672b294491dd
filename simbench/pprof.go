package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile (profile.proto) the attribution
// reads: every sample's stack as function names, innermost first, with
// inlined calls expanded, plus its values and string labels.
type profile struct {
	// SampleTypes names each entry of sample.Values ("samples",
	// "cpu", "contentions", "delay", ...).
	SampleTypes []string
	Samples     []sample
}

type sample struct {
	// Stack lists function names from the innermost frame outwards.
	Stack  []string
	Values []int64
	Labels map[string]string
}

// valueIndex returns the position of the named sample type, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.SampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzip-compressed (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		strs        []string
		sampleTypes []int64 // string-table index of each value type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
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
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) (string, error) {
		if i < 0 || int(i) >= len(strs) {
			return "", fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range sampleTypes {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, s)
	}
	for _, rs := range samples {
		s := sample{Values: rs.values}
		for _, loc := range rs.locs {
			fns, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, fn := range fns {
				name, err := str(funcName[fn])
				if err != nil {
					return nil, err
				}
				s.Stack = append(s.Stack, name)
			}
		}
		for _, kv := range rs.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			if s.Labels == nil {
				s.Labels = map[string]string{}
			}
			s.Labels[k] = v
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// Protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf message")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case wire32:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which encoders may
// write packed (one length-delimited run) or as one varint per element.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
