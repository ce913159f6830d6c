// Package obs is the simulator's observability layer: per-uop pipetrace
// records, interval time-series metrics, and a debug HTTP server.
// Everything in it is zero-cost when disabled — the pipeline holds a single
// nil-guarded Observer pointer and pays one pointer test per cycle when
// observability is off.
//
// The layers:
//
//   - Pipetrace: one record per committed or squashed uop with its
//     stage timestamps (fetch/rename/issue/exec/writeback/commit), plus
//     event records for pipeline flushes and Slack-Dynamic template
//     disables/re-enables, written in the allocation-free binary format of
//     binpipe.go and converted to JSONL on demand (ConvertPipetrace).
//     Read back whole, by cycle window or by record range, and rendered by
//     cmd/mgtrace.
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
	// Pipetrace enables per-uop stage-timestamp records, written in the
	// binary encoding (see binpipe.go).
	Pipetrace bool
	// IntervalEvery enables interval sampling every IntervalEvery cycles
	// (0 = off).
	IntervalEvery int64
}

// Active reports whether any output is enabled.
func (o *Options) Active() bool {
	return o != nil && (o.Pipetrace || o.IntervalEvery > 0)
}

// FlagOptions assembles Options from the common command-line flag values
// (-pipetrace, -intervals, -tracedir). Returns nil when nothing is
// enabled; an empty dir defaults to "obs".
func FlagOptions(pipetrace bool, intervalEvery int64, dir string) *Options {
	if !pipetrace && intervalEvery <= 0 {
		return nil
	}
	if dir == "" {
		dir = "obs"
	}
	return &Options{Dir: dir, Pipetrace: pipetrace, IntervalEvery: intervalEvery}
}

// Observer carries the per-run collectors the pipeline feeds. Either field
// may be nil; the pipeline nil-checks each independently.
type Observer struct {
	Trace     *Pipetrace
	Intervals *IntervalSampler

	traceFile    *os.File
	intervalPath string
}

// Active reports whether the observer collects anything.
func (o *Observer) Active() bool {
	return o != nil && (o.Trace != nil || o.Intervals != nil)
}

// NewRunObserver creates an Observer whose outputs are routed to files
// under opts.Dir named <base>.pipetrace.bin and <base>.intervals.jsonl
// (base is sanitized). Returns
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
	if opts.Pipetrace {
		f, err := os.Create(filepath.Join(opts.Dir, base+".pipetrace.bin"))
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		o.traceFile = f
		o.Trace = NewBinaryPipetrace(f)
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
	if o.intervalPath != "" {
		out = append(out, filepath.Base(o.intervalPath))
	}
	return out
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
