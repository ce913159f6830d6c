package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// Sidecar seek index for binary pipetraces. A multi-gigabyte trace of a
// large input is effectively write-only if every query re-scans it from
// byte 0; the .mgidx sidecar makes the trace randomly accessible: every
// IndexEvery-th record gets an entry carrying its byte offset, record
// ordinal, and the exact min/max index cycle of the chunk it opens, so a
// reader can seek straight to the chunks that can possibly intersect a
// cycle window or record range and decode only those bytes. The footer
// records stream totals plus a trace-identity fingerprint (byte length and
// a CRC-32C of the trace's first indexHeadLen bytes) so a stale index left
// behind by a rewritten trace is rejected at open instead of silently
// returning records from the wrong run.
//
// Index file layout (all integers little-endian):
//
//	magic    8 bytes: "MGIDX1\r\n"
//	u32 every, u32 reserved(0)
//	entries, 32 bytes each:
//	    i64 off       — byte offset of the chunk's first record
//	    i64 firstRec  — 0-based ordinal of that record in the stream
//	    i64 minCycle  — exact min index cycle over the chunk's records
//	    i64 maxCycle  — exact max index cycle over the chunk's records
//	footer, 64 bytes:
//	    i64 records, i64 uops, i64 events, i64 traceBytes
//	    i64 minCycle, i64 maxCycle   (0, -1 for an empty trace)
//	    u32 traceCRC  — CRC-32C of the trace's first min(traceBytes, 64 KiB) bytes
//	    u32 indexCRC  — CRC-32C of every preceding index byte
//	    magic 8 bytes: "MGIDXE\r\n"
//
// A record's index cycle is its commit cycle when it committed, the last
// stage it reached when squashed, and the event cycle for events (see
// UopTrace.IndexCycle). Records are emitted in simulation-time order and a
// record's index cycle never exceeds its emission cycle, so cycle windows
// cluster into few chunks; the per-chunk min/max are exact regardless, so
// chunk selection is sound even where they interleave.
var (
	idxMagic    = [8]byte{'M', 'G', 'I', 'D', 'X', '1', '\r', '\n'}
	idxEndMagic = [8]byte{'M', 'G', 'I', 'D', 'X', 'E', '\r', '\n'}
)

const (
	// DefaultIndexEvery is the record stride between index entries: 32
	// bytes of index per 4096 records keeps the sidecar about four
	// decimal orders smaller than the trace while bounding any window
	// query's over-read to one chunk on each side.
	DefaultIndexEvery = 4096

	// indexHeadLen is how much of the trace's head the identity CRC
	// covers. Verification at open reads only this much, so opening an
	// indexed multi-GB trace stays O(64 KiB) + the queried window.
	indexHeadLen = 64 << 10

	idxHeaderLen = 16
	idxEntryLen  = 32
	idxFooterLen = 64
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// IndexEntry summarizes one chunk of IndexEvery consecutive records.
type IndexEntry struct {
	Off      int64 // byte offset of the chunk's first record
	FirstRec int64 // 0-based record ordinal of that record
	MinCycle int64 // exact min index cycle over the chunk
	MaxCycle int64 // exact max index cycle over the chunk
}

// Index is a parsed (or under-construction) seek index.
type Index struct {
	Every      int
	Records    int64
	Uops       int64
	Events     int64
	TraceBytes int64
	MinCycle   int64 // 0, -1 when Records == 0
	MaxCycle   int64
	TraceCRC   uint32
	Entries    []IndexEntry
}

// IndexInfo summarizes a written index: its sidecar file, record count and
// commit-cycle span (the index footer holds the same figures).
type IndexInfo struct {
	File     string `json:"file"`
	Records  int64  `json:"records"`
	MinCycle int64  `json:"minCycle"`
	MaxCycle int64  `json:"maxCycle"`
}

// Info summarizes the index. file is the sidecar's name.
func (x *Index) Info(file string) *IndexInfo {
	return &IndexInfo{File: file, Records: x.Records, MinCycle: x.MinCycle, MaxCycle: x.MaxCycle}
}

// IndexCycle returns the cycle a record is indexed and windowed by: the
// commit cycle for committed uops, and the last stage the uop reached for
// squashed ones (their commit is -1). The same rule drives index building,
// indexed seeks, and linear-scan filtering, so the three always agree.
func (u *UopTrace) IndexCycle() int64 {
	if u.Commit >= 0 {
		return u.Commit
	}
	c := int64(0)
	for _, t := range [...]int64{u.Fetch, u.Rename, u.Issue, u.Done, u.Ready} {
		if t > c {
			c = t
		}
	}
	return c
}

// indexBuilder accumulates an Index while trace records stream past. It is
// fed by the binary pipetrace writer (EnableIndex) and by BuildIndex.
type indexBuilder struct {
	idx      Index
	cur      IndexEntry
	curN     int
	headLeft int64
	crc      uint32
}

func newIndexBuilder(every int) *indexBuilder {
	return &indexBuilder{
		idx:      Index{Every: every, MinCycle: math.MaxInt64, MaxCycle: math.MinInt64},
		headLeft: indexHeadLen,
	}
}

// note registers one record about to be written at byte offset off.
func (b *indexBuilder) note(off, cycle int64, isUop bool) {
	if b.curN == 0 {
		b.cur = IndexEntry{Off: off, FirstRec: b.idx.Records, MinCycle: cycle, MaxCycle: cycle}
	} else {
		if cycle < b.cur.MinCycle {
			b.cur.MinCycle = cycle
		}
		if cycle > b.cur.MaxCycle {
			b.cur.MaxCycle = cycle
		}
	}
	b.idx.Records++
	if isUop {
		b.idx.Uops++
	} else {
		b.idx.Events++
	}
	if cycle < b.idx.MinCycle {
		b.idx.MinCycle = cycle
	}
	if cycle > b.idx.MaxCycle {
		b.idx.MaxCycle = cycle
	}
	b.curN++
	if b.curN == b.idx.Every {
		b.idx.Entries = append(b.idx.Entries, b.cur)
		b.curN = 0
	}
}

// head feeds raw trace bytes (in stream order, starting with the magic)
// into the identity CRC; bytes past indexHeadLen are ignored.
func (b *indexBuilder) head(p []byte) {
	if b.headLeft <= 0 {
		return
	}
	if int64(len(p)) > b.headLeft {
		p = p[:b.headLeft]
	}
	b.crc = crc32.Update(b.crc, crcTab, p)
	b.headLeft -= int64(len(p))
}

// finish seals the index once the trace has traceBytes bytes.
func (b *indexBuilder) finish(traceBytes int64) *Index {
	if b.curN > 0 {
		b.idx.Entries = append(b.idx.Entries, b.cur)
		b.curN = 0
	}
	if b.idx.Records == 0 {
		b.idx.MinCycle, b.idx.MaxCycle = 0, -1
	}
	b.idx.TraceBytes = traceBytes
	b.idx.TraceCRC = b.crc
	return &b.idx
}

// WriteIndex serializes the index in the .mgidx layout.
func WriteIndex(w io.Writer, x *Index) error {
	buf := make([]byte, 0, idxHeaderLen+len(x.Entries)*idxEntryLen+idxFooterLen)
	buf = append(buf, idxMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.Every))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, e := range x.Entries {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Off))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.FirstRec))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.MinCycle))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.MaxCycle))
	}
	for _, v := range [...]int64{x.Records, x.Uops, x.Events, x.TraceBytes, x.MinCycle, x.MaxCycle} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, x.TraceCRC)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTab))
	buf = append(buf, idxEndMagic[:]...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	noteIndexWritten(int64(len(x.Entries)))
	return nil
}

// WriteIndexFile writes the index to path.
func WriteIndexFile(path string, x *Index) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteIndex(f, x); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadIndex parses and structurally validates an index: both magics must be
// present, the entry region must divide evenly, the reserved header word
// must be zero, and the embedded CRC must match, so a truncated or
// bit-rotted index is rejected rather than misdirecting seeks.
func ReadIndex(r io.Reader) (*Index, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace index: %w", err)
	}
	if len(raw) < idxHeaderLen+idxFooterLen || !bytes.Equal(raw[:8], idxMagic[:]) {
		return nil, fmt.Errorf("trace index: missing %q magic (truncated or not an index)", idxMagic)
	}
	if !bytes.Equal(raw[len(raw)-8:], idxEndMagic[:]) {
		return nil, fmt.Errorf("trace index: missing %q end magic (truncated index)", idxEndMagic)
	}
	entryBytes := len(raw) - idxHeaderLen - idxFooterLen
	if entryBytes%idxEntryLen != 0 {
		return nil, fmt.Errorf("trace index: %d entry bytes not a multiple of %d (truncated index)", entryBytes, idxEntryLen)
	}
	le := binary.LittleEndian
	crcOff := len(raw) - 12
	if got, want := crc32.Checksum(raw[:crcOff], crcTab), le.Uint32(raw[crcOff:]); got != want {
		return nil, fmt.Errorf("trace index: checksum mismatch (corrupt index)")
	}
	x := &Index{Every: int(le.Uint32(raw[8:]))}
	if x.Every <= 0 {
		return nil, fmt.Errorf("trace index: invalid record stride %d", x.Every)
	}
	if r := le.Uint32(raw[12:]); r != 0 {
		return nil, fmt.Errorf("trace index: reserved header word %#x, want 0", r)
	}
	p := raw[idxHeaderLen:]
	x.Entries = make([]IndexEntry, entryBytes/idxEntryLen)
	for i := range x.Entries {
		x.Entries[i] = IndexEntry{
			Off:      int64(le.Uint64(p[0:])),
			FirstRec: int64(le.Uint64(p[8:])),
			MinCycle: int64(le.Uint64(p[16:])),
			MaxCycle: int64(le.Uint64(p[24:])),
		}
		p = p[idxEntryLen:]
	}
	x.Records = int64(le.Uint64(p[0:]))
	x.Uops = int64(le.Uint64(p[8:]))
	x.Events = int64(le.Uint64(p[16:]))
	x.TraceBytes = int64(le.Uint64(p[24:]))
	x.MinCycle = int64(le.Uint64(p[32:]))
	x.MaxCycle = int64(le.Uint64(p[40:]))
	x.TraceCRC = le.Uint32(p[48:])
	return x, nil
}

// ReadIndexFile parses the index at path.
func ReadIndexFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIndex(f)
}

// IndexPath returns the sidecar index path for a trace path.
func IndexPath(tracePath string) string { return tracePath + ".mgidx" }

// BuildIndex scans an existing binary pipetrace and builds its index, for
// traces written before indexing existed (mgtrace -index). The result is
// identical to the index the writer would have produced with the same
// stride.
func BuildIndex(r io.Reader, every int) (*Index, error) {
	if every <= 0 {
		every = DefaultIndexEvery
	}
	br := bufio.NewReaderSize(r, 1<<16)
	if !sniffBinary(br) {
		return nil, fmt.Errorf("trace index: input is not a binary pipetrace (no %q magic); only binary traces are indexable", binMagic)
	}
	d, err := newBinReader(br)
	if err != nil {
		return nil, err
	}
	d.track = true
	b := newIndexBuilder(every)
	b.head(binMagic[:])
	for {
		var u UopTrace
		var e TraceEvent
		isUop, err := d.next(&u, &e)
		if err == io.EOF {
			return b.finish(d.off), nil
		}
		if err != nil {
			return nil, err
		}
		cycle := e.Cycle
		if isUop {
			cycle = u.IndexCycle()
		}
		b.note(d.recOff, cycle, isUop)
		b.head(d.raw)
	}
}

// verifyIndex checks the index against the open trace: the byte length
// recorded at index time and the CRC of the trace's head must both match,
// so an index left behind by a rewritten trace is rejected.
func verifyIndex(x *Index, r io.ReadSeeker, size int64) error {
	if size != x.TraceBytes {
		return fmt.Errorf("stale trace index: trace is %d bytes, index was built over %d (rebuild with mgtrace -index)", size, x.TraceBytes)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return err
	}
	n := size
	if n > indexHeadLen {
		n = indexHeadLen
	}
	head := make([]byte, n)
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("trace index: reading trace head: %w", err)
	}
	if got := crc32.Checksum(head, crcTab); got != x.TraceCRC {
		return fmt.Errorf("stale trace index: trace checksum %08x, index recorded %08x (rebuild with mgtrace -index)", got, x.TraceCRC)
	}
	return nil
}

// IndexedReader reads a pipetrace with random access when a seek index is
// available, and degrades transparently to a linear scan when it is not
// (JSONL traces, or binary traces without a sidecar). All query paths
// apply the same filtering rule, so indexed and linear results are
// record-identical by construction — the index only bounds which bytes
// are decoded.
type IndexedReader struct {
	r      io.ReadSeeker
	c      io.Closer
	idx    *Index
	size   int64
	binary bool
}

// OpenIndexed opens a pipetrace file and, for binary traces, its sidecar
// index when present. A present-but-mismatched index is an error (never
// silently ignored); a missing one selects the linear-scan fallback.
func OpenIndexed(tracePath string) (*IndexedReader, error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	var idx *Index
	if _, err := os.Stat(IndexPath(tracePath)); err == nil {
		if idx, err = ReadIndexFile(IndexPath(tracePath)); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", IndexPath(tracePath), err)
		}
	}
	ir, err := NewIndexedReader(f, idx)
	if err != nil {
		f.Close()
		return nil, err
	}
	ir.c = f
	return ir, nil
}

// NewIndexedReader wraps an open trace stream. idx may be nil (linear
// fallback); a non-nil idx is verified against the stream before use.
func NewIndexedReader(r io.ReadSeeker, idx *Index) (*IndexedReader, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var head [8]byte
	n, _ := io.ReadFull(r, head[:])
	isBin := n == len(binMagic) && head == binMagic
	if !isBin && n >= 4 && bytes.Equal(head[:4], binMagic[:4]) {
		return nil, fmt.Errorf("pipetrace: corrupt binary magic %q (want %q)", head[:n], binMagic)
	}
	ir := &IndexedReader{r: r, size: size, binary: isBin}
	if idx != nil {
		if !isBin {
			return nil, fmt.Errorf("trace index: trace is not a binary pipetrace")
		}
		if err := verifyIndex(idx, r, size); err != nil {
			return nil, err
		}
		ir.idx = idx
	}
	return ir, nil
}

// Indexed reports whether queries seek through an index (false = linear).
func (ir *IndexedReader) Indexed() bool { return ir.idx != nil }

// Index returns the loaded index, or nil.
func (ir *IndexedReader) Index() *Index { return ir.idx }

// Close closes the underlying file when OpenIndexed opened it.
func (ir *IndexedReader) Close() error {
	if ir.c != nil {
		return ir.c.Close()
	}
	return nil
}

// All reads every record, in stream order per slice.
func (ir *IndexedReader) All() ([]UopTrace, []TraceEvent, error) {
	if _, err := ir.r.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	return ReadPipetrace(ir.r)
}

// Window returns the records whose index cycle lies in [startCyc, endCyc]
// (inclusive), in stream order. With an index only the chunks whose exact
// cycle ranges intersect the window are read; without one the whole trace
// is scanned and filtered by the same rule.
func (ir *IndexedReader) Window(startCyc, endCyc int64) ([]UopTrace, []TraceEvent, error) {
	if startCyc > endCyc {
		return nil, nil, fmt.Errorf("pipetrace window: start cycle %d after end %d", startCyc, endCyc)
	}
	keep := func(cycle int64) bool { return cycle >= startCyc && cycle <= endCyc }
	if ir.idx == nil {
		var uops []UopTrace
		var events []TraceEvent
		err := ir.scanAll(func(_ int64, isUop bool, u *UopTrace, e *TraceEvent) (bool, error) {
			if isUop {
				if keep(u.IndexCycle()) {
					uops = append(uops, *u)
				}
			} else if keep(e.Cycle) {
				events = append(events, *e)
			}
			return true, nil
		})
		return uops, events, err
	}

	// Coalesce adjacent overlapping chunks into runs so each run costs one
	// seek and one sequential decode.
	var uops []UopTrace
	var events []TraceEvent
	ents := ir.idx.Entries
	for i := 0; i < len(ents); {
		if ents[i].MaxCycle < startCyc || ents[i].MinCycle > endCyc {
			i++
			continue
		}
		j := i
		for j+1 < len(ents) && !(ents[j+1].MaxCycle < startCyc || ents[j+1].MinCycle > endCyc) {
			j++
		}
		end := ir.idx.TraceBytes
		if j+1 < len(ents) {
			end = ents[j+1].Off
		}
		err := ir.scanChunks(ents[i], end, func(_ int64, isUop bool, u *UopTrace, e *TraceEvent) (bool, error) {
			if isUop {
				if keep(u.IndexCycle()) {
					uops = append(uops, *u)
				}
			} else if keep(e.Cycle) {
				events = append(events, *e)
			}
			return true, nil
		})
		if err != nil {
			return nil, nil, err
		}
		i = j + 1
	}
	return uops, events, nil
}

// Range returns records with stream ordinal in [startRec, endRec]
// (inclusive, 0-based), in stream order.
func (ir *IndexedReader) Range(startRec, endRec int64) ([]UopTrace, []TraceEvent, error) {
	if startRec > endRec {
		return nil, nil, fmt.Errorf("pipetrace range: start record %d after end %d", startRec, endRec)
	}
	var uops []UopTrace
	var events []TraceEvent
	collect := func(ord int64, isUop bool, u *UopTrace, e *TraceEvent) (bool, error) {
		if ord > endRec {
			return false, nil
		}
		if ord >= startRec {
			if isUop {
				uops = append(uops, *u)
			} else {
				events = append(events, *e)
			}
		}
		return true, nil
	}
	if ir.idx == nil || len(ir.idx.Entries) == 0 {
		err := ir.scanAll(collect)
		return uops, events, err
	}
	ents := ir.idx.Entries
	k := sort.Search(len(ents), func(i int) bool { return ents[i].FirstRec > startRec }) - 1
	if k < 0 {
		k = 0
	}
	err := ir.scanChunks(ents[k], ir.idx.TraceBytes, collect)
	return uops, events, err
}

// scanFn receives each decoded record with its stream ordinal; returning
// false stops the scan early.
type scanFn func(ord int64, isUop bool, u *UopTrace, e *TraceEvent) (bool, error)

// scanAll decodes the whole trace (either format) from byte 0.
func (ir *IndexedReader) scanAll(fn scanFn) error {
	if _, err := ir.r.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(ir.r, 1<<16)
	if ir.binary {
		d, err := newBinReader(br)
		if err != nil {
			return err
		}
		return scanBinary(d, 0, fn)
	}
	return scanJSONL(br, fn)
}

// scanChunks decodes binary records from the chunk opened by ent up to
// byte offset end.
func (ir *IndexedReader) scanChunks(ent IndexEntry, end int64, fn scanFn) error {
	if _, err := ir.r.Seek(ent.Off, io.SeekStart); err != nil {
		return err
	}
	lr := io.LimitReader(ir.r, end-ent.Off)
	d := &binReader{br: bufio.NewReaderSize(lr, 1<<16), intern: make(map[string]string, 16)}
	d.rec = int(ent.FirstRec) // error messages carry true record numbers
	return scanBinary(d, ent.FirstRec, fn)
}

func scanBinary(d *binReader, ord int64, fn scanFn) error {
	for {
		var u UopTrace
		var e TraceEvent
		isUop, err := d.next(&u, &e)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		cont, err := fn(ord, isUop, &u, &e)
		if err != nil || !cont {
			return err
		}
		ord++
	}
}

// scanJSONL streams JSONL records with ordinals, mirroring
// readJSONLPipetrace's decoding and error positions.
func scanJSONL(r io.Reader, fn scanFn) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	ord := int64(0)
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var l traceLine
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("pipetrace line %d: %w", line, err)
		}
		var cont bool
		var err error
		switch l.Type {
		case "uop":
			cont, err = fn(ord, true, &l.UopTrace, nil)
		case "ev":
			e := TraceEvent{Type: "ev", Cycle: l.Cycle, Ev: l.Ev, Template: l.Template, Seq: l.Seq}
			cont, err = fn(ord, false, nil, &e)
		default:
			return fmt.Errorf("pipetrace line %d: unknown record type %q", line, l.Type)
		}
		if err != nil || !cont {
			return err
		}
		ord++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("pipetrace line %d: %w", line+1, err)
	}
	return nil
}
