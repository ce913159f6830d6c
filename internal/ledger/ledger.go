// Package ledger is the persistent run history under the simulation
// service: an append-only, crash-safe, disk-backed record of every
// completed simulation task. Where the in-process caches (internal/simcache)
// make repeated work free within one invocation, the ledger makes results
// *comparable across invocations* — each record carries the task's
// content-addressed fingerprint, its headline metrics, the source revision
// and a host fingerprint, so two sweeps run days apart can be diffed
// per-(workload, series) and gated on regressions (cmd/mgstat -compare),
// and a sweep's ancestry browsed live (/debug/dash).
//
// Durability model: one file, <dir>/ledger.jsonl, opened O_APPEND. Each
// record is a single line "v1 <crc32c-hex8> <compact-json>\n" written in
// one Write call under a mutex, so concurrent appenders interleave whole
// lines. A crash mid-write leaves a torn tail that fails the CRC (or has
// no newline); readers skip it, and Open repairs a missing trailing
// newline before appending so the next record starts clean. Nothing is
// ever rewritten in place.
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// FileName is the ledger file inside the -ledger directory.
const FileName = "ledger.jsonl"

// linePrefix tags every valid record line with the encoding version.
const linePrefix = "v1 "

// castagnoli is the CRC-32C table (same polynomial the trace index uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Host is the machine fingerprint stamped into every record: performance
// numbers are only comparable when these match (the benchjson baselines
// were bitten twice by cross-host diffs before this existed).
type Host struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// SameMachine reports whether two fingerprints identify the same hardware
// (hostname, CPU model, OS, architecture — GOMAXPROCS and the Go version
// vary per invocation without the machine changing).
func (h Host) SameMachine(o Host) bool {
	return h.Hostname == o.Hostname && h.CPU == o.CPU && h.OS == o.OS && h.Arch == o.Arch
}

// Summary renders the fingerprint as one comparable line.
func (h Host) Summary() string {
	return fmt.Sprintf("%s (%s, %s/%s, GOMAXPROCS=%d, %s)",
		h.Hostname, h.CPU, h.OS, h.Arch, h.GOMAXPROCS, h.Go)
}

// CurrentHost fingerprints the running machine.
func CurrentHost() Host {
	name, _ := os.Hostname()
	return Host{
		Hostname:   name,
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where available,
// falling back to the architecture tag.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok &&
				strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown (" + runtime.GOARCH + ")"
}

// DetectRev resolves the source revision for new records: the MG_REV
// environment variable when set (how make targets pin it), else the VCS
// revision stamped into the binary by `go build`, else "unknown". Drivers
// expose -ledger-rev to override.
func DetectRev() string {
	if v := os.Getenv("MG_REV"); v != "" {
		return v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "unknown"
}

// Record is one completed simulation task. Cycles == 0 marks a
// non-timing record (e.g. an mgselect selection), which history queries
// keep but the compare gate ignores.
type Record struct {
	Time  string `json:"time"` // RFC3339Nano, UTC
	Rev   string `json:"rev"`
	RunID string `json:"run"`  // one ID per process invocation
	Tool  string `json:"tool"` // sweep, mgreport, mgsim, mgselect

	Sweep    string `json:"sweep,omitempty"` // sweep title, when part of one
	Workload string `json:"workload"`
	Series   string `json:"series"` // series label / config+selector identity
	Input    string `json:"input"`

	// Key is the content-addressed fingerprint of the series point
	// (core.TaskKey: workload, input, policy, profile provenance, machine,
	// sampling), tying the record to exactly the configuration that
	// produced it. It names the point, not its simulation: two points whose
	// selections are equal share one run under different keys.
	Key string `json:"key,omitempty"`
	// Cache is how the point's timing run was answered: "hit", "shared"
	// or "miss" (a selection-only mgselect record: its selection's), or
	// "traced" for an observed run, which bypasses the result cache.
	// Older files also carry "nocache" (an uncached sweep task) and "run"
	// (a driver run before drivers shared the sweep's point evaluation);
	// the compare gate reads both as simulated.
	Cache string `json:"cache,omitempty"`
	// Files names the observability files (pipetrace, intervals) an
	// observed task wrote into its -tracedir.
	Files []string `json:"files,omitempty"`

	// Estimate marks a sampled (low-fidelity) run: the metrics below are
	// statistical estimates, not exact simulation, and must never be
	// compared against exact records (the compare gate skips mixed pairs).
	// Sample carries the sampling-spec tag, e.g. "rep/i1000/w1000/k8".
	Estimate bool   `json:"estimate,omitempty"`
	Sample   string `json:"sample,omitempty"`

	WallMS float64 `json:"wall_ms"`

	// CPUMS is the task's consumed CPU time: a per-OS-thread CPU-clock delta
	// measured on a pinned sweep worker (exact), or a whole-process delta
	// for single-task drivers. Unlike wall time it is robust to host load
	// and comparable across machines of similar class, so -gate-cpu uses it
	// as the default cost signal. 0 = not measured (old records, or a
	// platform without a CPU clock).
	CPUMS float64 `json:"cpu_ms,omitempty"`
	// MaxRSSKB is the process resident-set high-water mark (KB) when the
	// task finished; process-wide and monotone within a run.
	MaxRSSKB int64 `json:"max_rss_kb,omitempty"`
	// GCCycles is the number of GC cycles completed while the task ran
	// (process-global: approximate when tasks run concurrently).
	GCCycles int64 `json:"gc_cycles,omitempty"`

	Cycles   int64   `json:"cycles,omitempty"`
	Instrs   int64   `json:"instrs,omitempty"`
	Uops     int64   `json:"uops,omitempty"`
	IPC      float64 `json:"ipc,omitempty"`
	UPC      float64 `json:"upc,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`

	// Critpath carries the cycle-loss bucket summary (bucket name →
	// critical-path cycles) when the task ran attribution.
	Critpath map[string]int64 `json:"critpath,omitempty"`

	Host  Host   `json:"host"`
	Error string `json:"error,omitempty"`
}

// PointKey identifies the series point a record measures — the grouping
// unit for history sparklines and cross-rev comparison.
func (r *Record) PointKey() string {
	return r.Workload + "\x00" + r.Series + "\x00" + r.Input
}

// Ledger is an open, appendable run history. Safe for concurrent use.
type Ledger struct {
	mu   sync.Mutex
	f    *os.File
	path string
	rev  string
	run  string
	host Host
}

// Open opens (creating as needed) the ledger in dir for appending. rev is
// stamped into every record this process appends; an empty rev means
// DetectRev. A pre-existing file is never truncated: a torn tail line left
// by a crash is terminated with a newline so subsequent records parse.
func Open(dir, rev string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	if err := repairTail(path, f); err != nil {
		f.Close()
		return nil, err
	}
	if rev == "" {
		rev = DetectRev()
	}
	return &Ledger{
		f:    f,
		path: path,
		rev:  rev,
		run:  fmt.Sprintf("%d-%d", time.Now().UnixNano(), os.Getpid()),
		host: CurrentHost(),
	}, nil
}

// repairTail terminates an unterminated final line (a torn write from a
// crashed process) so the next append starts a fresh line. The torn
// record itself stays in the file and is skipped by readers (CRC fails).
func repairTail(path string, f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	var last [1]byte
	if _, err := r.ReadAt(last[:], st.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// Path returns the ledger file path.
func (l *Ledger) Path() string { return l.path }

// Rev returns the revision stamped into appended records.
func (l *Ledger) Rev() string { return l.rev }

// Host returns the fingerprint of the appending machine.
func (l *Ledger) Host() Host { return l.host }

// Append writes one record. The ledger fills Time, Rev, RunID and Host
// when unset; everything else is the caller's. The line is assembled
// fully before a single Write, so concurrent appenders never interleave
// partial records.
func (l *Ledger) Append(r Record) error {
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if r.Rev == "" {
		r.Rev = l.rev
	}
	if r.RunID == "" {
		r.RunID = l.run
	}
	if r.Host == (Host{}) {
		r.Host = l.host
	}
	body, err := json.Marshal(&r)
	if err != nil {
		return err
	}
	line := make([]byte, 0, len(linePrefix)+9+len(body)+1)
	line = append(line, linePrefix...)
	line = append(line, fmt.Sprintf("%08x", crc32.Checksum(body, castagnoli))...)
	line = append(line, ' ')
	line = append(line, body...)
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.f.Write(line)
	return err
}

// Close flushes and closes the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Read parses every valid record in a ledger file, in append order.
// Invalid lines are skipped, not fatal; their count comes back so callers
// can surface the damage. A torn tail from a crash always fails the CRC —
// the checksum covers the complete body, so any truncated prefix
// mismatches — and a missing file reads as an empty history.
func Read(path string) (recs []Record, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		r, ok := parseLine(sc.Bytes())
		if !ok {
			skipped++
			continue
		}
		recs = append(recs, r)
	}
	return recs, skipped, sc.Err()
}

// parseLine validates and decodes one ledger line.
func parseLine(line []byte) (Record, bool) {
	if !bytes.HasPrefix(line, []byte(linePrefix)) || len(line) < len(linePrefix)+9 {
		return Record{}, false
	}
	rest := line[len(linePrefix):]
	if rest[8] != ' ' {
		return Record{}, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &want); err != nil {
		return Record{}, false
	}
	body := rest[9:]
	if crc32.Checksum(body, castagnoli) != want {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(body, &r); err != nil {
		return Record{}, false
	}
	return r, true
}

// ReadDir reads the ledger history under a -ledger directory.
func ReadDir(dir string) ([]Record, int, error) {
	return Read(filepath.Join(dir, FileName))
}
