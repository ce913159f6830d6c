// Package obs is the simulator's observability layer: per-uop pipetrace
// records with their seek index, interval time-series metrics, and a debug
// HTTP server. Everything in it is zero-cost when disabled — the pipeline
// holds a single nil-guarded Observer pointer and pays one pointer test
// per cycle when observability is off.
//
// The layers:
//
//   - Pipetrace: one record per committed or squashed uop with its
//     stage timestamps (fetch/rename/issue/exec/writeback/commit), plus
//     event records for pipeline flushes and Slack-Dynamic template
//     disables/re-enables, encoded as JSONL or as the allocation-free
//     binary format in binpipe.go. Rendered by cmd/mgtrace.
//   - IntervalSampler: every N cycles, a snapshot of IPC, UPC, coverage,
//     queue occupancies, the stall-cause breakdown, and monitor activity,
//     kept in a bounded ring and exported as JSONL or CSV.
package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Options selects which observability outputs a run produces and where
// they go. The zero value (and nil) disables everything.
type Options struct {
	// Dir is the output directory for trace and interval files; created on
	// first use.
	Dir string
	// Pipetrace enables per-uop stage-timestamp records.
	Pipetrace bool
	// PipetraceBin selects the allocation-free binary trace encoding
	// instead of JSONL (implies Pipetrace; see binpipe.go).
	PipetraceBin bool
	// IntervalEvery enables interval sampling every IntervalEvery cycles
	// (0 = off).
	IntervalEvery int64
	// IndexEvery is the record stride of the seek index written alongside
	// binary pipetraces (see traceindex.go); 0 disables indexing. Only
	// meaningful with PipetraceBin.
	IndexEvery int
}

// Active reports whether any output is enabled.
func (o *Options) Active() bool {
	return o != nil && (o.Pipetrace || o.PipetraceBin || o.IntervalEvery > 0)
}

// FlagOptions assembles Options from the common command-line flag values
// (-pipetrace, -pipetrace-bin, -intervals, -tracedir). Returns nil when
// nothing is enabled; an empty dir defaults to "obs".
func FlagOptions(pipetrace, pipetraceBin bool, intervalEvery int64, dir string) *Options {
	if !pipetrace && !pipetraceBin && intervalEvery <= 0 {
		return nil
	}
	if dir == "" {
		dir = "obs"
	}
	o := &Options{Dir: dir, Pipetrace: pipetrace, PipetraceBin: pipetraceBin,
		IntervalEvery: intervalEvery}
	if pipetraceBin {
		// Binary traces of the large inputs run to gigabytes; the sidecar
		// index that makes them seekable costs ~32 bytes per 4096 records,
		// so it is always on for binary traces.
		o.IndexEvery = DefaultIndexEvery
	}
	return o
}

// Observer carries the per-run collectors the pipeline feeds. Either field
// may be nil; the pipeline nil-checks each independently.
type Observer struct {
	Trace     *Pipetrace
	Intervals *IntervalSampler

	traceFile    *os.File
	intervalPath string
	indexPath    string
	indexInfo    *IndexInfo // set by Close when an index was written
}

// Active reports whether the observer collects anything.
func (o *Observer) Active() bool {
	return o != nil && (o.Trace != nil || o.Intervals != nil)
}

// NewRunObserver creates an Observer whose outputs are routed to files
// under opts.Dir named <base>.pipetrace.jsonl (or .pipetrace.bin with
// PipetraceBin) and <base>.intervals.jsonl (base is sanitized). Returns
// nil when opts enables nothing. The caller must Close the observer after
// the run to flush and finalize the files.
func NewRunObserver(opts *Options, base string) (*Observer, error) {
	if !opts.Active() {
		return nil, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	base = Sanitize(base)
	o := &Observer{}
	if opts.Pipetrace || opts.PipetraceBin {
		ext, mk := ".pipetrace.jsonl", NewPipetrace
		if opts.PipetraceBin {
			ext, mk = ".pipetrace.bin", NewBinaryPipetrace
		}
		f, err := os.Create(filepath.Join(opts.Dir, base+ext))
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		o.traceFile = f
		o.Trace = mk(f)
		if opts.PipetraceBin && opts.IndexEvery > 0 {
			if err := o.Trace.EnableIndex(opts.IndexEvery); err != nil {
				f.Close()
				return nil, fmt.Errorf("obs: %w", err)
			}
			o.indexPath = IndexPath(f.Name())
		}
	}
	if opts.IntervalEvery > 0 {
		o.Intervals = NewIntervalSampler(opts.IntervalEvery)
		o.intervalPath = filepath.Join(opts.Dir, base+".intervals.jsonl")
	}
	return o, nil
}

// Files returns the output file names (not paths) this observer writes,
// for run-ledger records.
func (o *Observer) Files() []string {
	if o == nil {
		return nil
	}
	var out []string
	if o.traceFile != nil {
		out = append(out, filepath.Base(o.traceFile.Name()))
	}
	if o.indexPath != "" {
		out = append(out, filepath.Base(o.indexPath))
	}
	if o.intervalPath != "" {
		out = append(out, filepath.Base(o.intervalPath))
	}
	return out
}

// IndexInfo returns the summary of the seek index Close wrote, or nil when
// no index was produced (or Close has not run yet).
func (o *Observer) IndexInfo() *IndexInfo {
	if o == nil {
		return nil
	}
	return o.indexInfo
}

// Close flushes the pipetrace, writes the interval file, and closes every
// output. It is safe on a nil observer.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	var first error
	if o.Trace != nil {
		if err := o.Trace.Flush(); err != nil && first == nil {
			first = err
		}
		if idx := o.Trace.Index(); idx != nil && o.indexPath != "" && first == nil {
			if err := WriteIndexFile(o.indexPath, idx); err != nil {
				first = err
			} else {
				o.indexInfo = idx.Info(filepath.Base(o.indexPath))
			}
		}
	}
	if o.traceFile != nil {
		if err := o.traceFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	if o.Intervals != nil && o.intervalPath != "" {
		f, err := os.Create(o.intervalPath)
		if err != nil {
			if first == nil {
				first = err
			}
		} else {
			if err := WriteIntervalsJSONL(f, o.Intervals.Intervals()); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Sanitize maps an arbitrary label to a safe file-name stem: every rune
// outside [A-Za-z0-9._-] becomes '_'.
func Sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}
