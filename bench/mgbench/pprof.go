package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The pipeline stage shares come from a CPU profile of the traced passes:
// the samples whose stack passes through a stage method of the timing
// model's machine, over the samples under its main loop. Shares are
// cumulative, so a stage includes what it calls: issue includes execute,
// and commit includes the profile fold.

const machine = "repro/internal/pipeline.(*machine)."

var stages = []struct {
	metric string
	funcs  []string
}{
	{"pipeline.stage.fetch.share", []string{machine + "fetch"}},
	{"pipeline.stage.rename.share", []string{machine + "rename"}},
	{"pipeline.stage.issue.share", []string{machine + "issueEvent", machine + "issue"}},
	{"pipeline.stage.execute.share", []string{machine + "execute"}},
	{"pipeline.stage.commit.share", []string{machine + "commit"}},
	{"pipeline.stage.advance.share", []string{machine + "advanceCycle"}},
	{"pipeline.stage.profile_fold.share", []string{machine + "foldProfile", machine + "drainProfile"}},
}

// gcFuncs are the runtime's garbage-collection entry points: background
// mark workers, mark assists charged to allocating goroutines, and the
// background sweeper and scavenger.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// stageCounts accumulates profile samples over one or more profiles.
type stageCounts struct {
	total, mainLoop, gc int64
	stage               []int64 // indexed like stages
}

func (c *stageCounts) shares() map[string]float64 {
	out := map[string]float64{"runtime.gc.share": pct(float64(c.gc), float64(c.total))}
	for i, s := range stages {
		var n int64
		if c.stage != nil {
			n = c.stage[i]
		}
		out[s.metric] = pct(float64(n), float64(c.mainLoop))
	}
	return out
}

// add folds a gzipped pprof CPU profile into the counts.
func (c *stageCounts) add(gz []byte) error {
	samples, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	if c.stage == nil {
		c.stage = make([]int64, len(stages))
	}
	has := func(stack map[string]bool, funcs []string) bool {
		for _, f := range funcs {
			if stack[f] {
				return true
			}
		}
		return false
	}
	for _, s := range samples {
		c.total += s.count
		if has(s.funcs, gcFuncs) {
			c.gc += s.count
		}
		if !s.funcs[machine+"mainLoop"] {
			continue
		}
		c.mainLoop += s.count
		for i, st := range stages {
			if has(s.funcs, st.funcs) {
				c.stage[i] += s.count
			}
		}
	}
	return nil
}

// profSample is one profile sample: its count and the set of functions on
// its stack, inlined frames included.
type profSample struct {
	count int64
	funcs map[string]bool
}

// decodeProfile reads the parts of a gzipped profile.proto message that the
// stage shares need: samples (location ids and values), locations (their
// lines' function ids), functions (name string index) and the string table.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: int64(s.values[0]), funcs: map[string]bool{}}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && i < int64(len(strs)) {
					ps.funcs[strs[i]] = true
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// fields walks the fields of one protobuf message, calling fn with the
// field number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value, body nil) or packed (body holds the varints).
func appendPacked(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}
