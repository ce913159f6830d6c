package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"unicode/utf8"
)

// Binary pipetrace encoding, the one traced runs write. A JSONL encoder
// costs one json.Encoder allocation pass per record; the binary encoding
// streams the same records as length-prefixed fixed-layout little-endian
// structs into a reused scratch buffer, so tracing allocates nothing per
// record. ConvertPipetrace re-encodes a binary trace as JSONL for readers
// that want text, and ReadPipetrace auto-detects either format.
//
// Stream layout (all integers little-endian):
//
//	magic   8 bytes: "MGPTB1\r\n" (the \r\n catches text-mode mangling)
//	records until EOF, each: [tag u8][payloadLen u32][payload]
//
// Uop record (tag 0x01), payload:
//
//	off  0  seq     i64      off 56  serlat  i64
//	off  8  fetch   i64      off 64  serout  i64
//	off 16  rename  i64      off 72  mlat    i64
//	off 24  issue   i64      off 80  static  i32
//	off 32  done    i64      off 84  tmpl    i32
//	off 40  ready   i64      off 88  dst     i32
//	off 48  commit  i64      off 92  replays u32
//	off 96  addr    u32
//	off 100 n       u16
//	off 102 kind    u8  (0 singleton, 1 handle, 2 ovh-jump)
//	off 103 mem     u8
//	off 104 flags   u8  (bit0 mispred, bit1 squashed, bit2 serext)
//	off 105 opLen   u8, then opLen bytes of mnemonic
//	then    nsrc    u8, then nsrc × i32 source registers
//
// Event record (tag 0x02), payload:
//
//	off  0  cycle    i64
//	off  8  seq      i64
//	off 16  template i32
//	off 20  evLen    u8, then evLen bytes of event kind
//
// Like the JSONL schema, the binary layout is append-only: new fields may
// be added to the end of a payload (readers tolerate longer payloads whose
// prefix parses), but existing offsets never move. Version bumps change
// the magic.
var binMagic = [8]byte{'M', 'G', 'P', 'T', 'B', '1', '\r', '\n'}

const (
	binTagUop   = 0x01
	binTagEvent = 0x02

	// binUopFixed is the size of a uop payload before its
	// variable-length tail (mnemonic and source list).
	binUopFixed   = 106
	binEventFixed = 21

	// binMaxPayload bounds a record's declared payload length; anything
	// larger is corruption, not data (the largest legitimate record is
	// ~120 bytes).
	binMaxPayload = 1 << 12
)

// binKindNames maps the on-disk kind code to the JSONL kind string. The
// set is closed (it mirrors the pipeline's uop kinds); an unknown kind at
// encode time is a sticky error rather than a silently wrong record.
var binKindNames = [...]string{"singleton", "handle", "ovh-jump"}

func binKindCode(kind string) (byte, bool) {
	for i, n := range binKindNames {
		if n == kind {
			return byte(i), true
		}
	}
	return 0, false
}

// binUop appends one uop record to the scratch buffer and writes it.
func (t *Pipetrace) binUop(r *UopTrace) error {
	kind, ok := binKindCode(r.Kind)
	if !ok {
		return fmt.Errorf("pipetrace: unknown uop kind %q", r.Kind)
	}
	if len(r.Op) > 255 {
		return fmt.Errorf("pipetrace: op mnemonic %q too long", r.Op)
	}
	if len(r.Srcs) > 255 {
		return fmt.Errorf("pipetrace: %d sources exceed the record limit", len(r.Srcs))
	}
	var flags byte
	if r.Mispred {
		flags |= 1 << 0
	}
	if r.Squashed {
		flags |= 1 << 1
	}
	if r.SerExt {
		flags |= 1 << 2
	}
	b := append(t.scratch[:0], binTagUop, 0, 0, 0, 0) // header patched by binRecord
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Seq))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Fetch))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Rename))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Issue))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Done))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Ready))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Commit))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.SerLat))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.SerOut))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.MemLat))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Static))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Tmpl))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Dst))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Replays))
	b = binary.LittleEndian.AppendUint32(b, r.Addr)
	b = binary.LittleEndian.AppendUint16(b, uint16(r.N))
	b = append(b, kind, byte(r.Mem), flags, byte(len(r.Op)))
	b = append(b, r.Op...)
	b = append(b, byte(len(r.Srcs)))
	for _, s := range r.Srcs {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	return t.binRecord(b)
}

// binEvent appends one event record to the scratch buffer and writes it.
func (t *Pipetrace) binEvent(e *TraceEvent) error {
	if len(e.Ev) > 255 {
		return fmt.Errorf("pipetrace: event kind %q too long", e.Ev)
	}
	b := append(t.scratch[:0], binTagEvent, 0, 0, 0, 0) // header patched by binRecord
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Cycle))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Seq))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Template))
	b = append(b, byte(len(e.Ev)))
	b = append(b, e.Ev...)
	return t.binRecord(b)
}

// binRecord patches the payload length into b's 5-byte [tag][len] header
// and writes the whole record in one call. The record is assembled in
// t.scratch (handed through b) so steady-state emission never allocates.
func (t *Pipetrace) binRecord(b []byte) error {
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(b)-5))
	t.scratch = b
	_, err := t.bw.Write(b)
	return err
}

// binReader streams records out of a binary pipetrace. Strings are
// interned so a trace with the usual handful of distinct mnemonics decodes
// without a per-record allocation.
type binReader struct {
	br     *bufio.Reader
	buf    []byte
	rec    int // 1-based record number, for errors
	intern map[string]string
}

// newBinReader consumes the magic (which the caller has already sniffed)
// and positions the reader at the first record.
func newBinReader(br *bufio.Reader) (*binReader, error) {
	var magic [len(binMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != binMagic {
		return nil, fmt.Errorf("pipetrace: bad binary magic")
	}
	return &binReader{br: br, intern: make(map[string]string, 16)}, nil
}

// next decodes the next record into exactly one of u or e. It returns
// io.EOF at a clean end of stream; every other error means corruption.
func (d *binReader) next(u *UopTrace, e *TraceEvent) (isUop bool, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(d.br, hdr[:1]); err != nil {
		if err == io.EOF {
			return false, io.EOF
		}
		return false, d.corrupt(err)
	}
	d.rec++
	if _, err := io.ReadFull(d.br, hdr[1:]); err != nil {
		return false, d.corrupt(err)
	}
	tag := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	if tag != binTagUop && tag != binTagEvent {
		return false, fmt.Errorf("pipetrace record %d: unknown tag 0x%02x", d.rec, tag)
	}
	if n > binMaxPayload {
		return false, fmt.Errorf("pipetrace record %d: payload length %d exceeds limit", d.rec, n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	p := d.buf[:n]
	if _, err := io.ReadFull(d.br, p); err != nil {
		return false, d.corrupt(err)
	}
	if tag == binTagUop {
		return true, d.decodeUop(p, u)
	}
	return false, d.decodeEvent(p, e)
}

func (d *binReader) corrupt(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("pipetrace record %d: truncated", d.rec+1)
	}
	return fmt.Errorf("pipetrace record %d: %w", d.rec+1, err)
}

// str returns b as an interned string. A string that is not UTF-8 is
// corruption: the simulator never writes one, and JSONL could not carry it
// through ConvertPipetrace.
func (d *binReader) str(b []byte, what string) (string, error) {
	if s, ok := d.intern[string(b)]; ok {
		return s, nil
	}
	if !utf8.Valid(b) {
		return "", fmt.Errorf("pipetrace record %d: %s %q is not UTF-8", d.rec, what, b)
	}
	s := string(b)
	d.intern[s] = s
	return s, nil
}

func (d *binReader) decodeUop(p []byte, u *UopTrace) error {
	if len(p) < binUopFixed {
		return fmt.Errorf("pipetrace record %d: uop payload %d bytes, need %d", d.rec, len(p), binUopFixed)
	}
	le := binary.LittleEndian
	*u = UopTrace{
		Type:    "uop",
		Seq:     int64(le.Uint64(p[0:])),
		Fetch:   int64(le.Uint64(p[8:])),
		Rename:  int64(le.Uint64(p[16:])),
		Issue:   int64(le.Uint64(p[24:])),
		Done:    int64(le.Uint64(p[32:])),
		Ready:   int64(le.Uint64(p[40:])),
		Commit:  int64(le.Uint64(p[48:])),
		SerLat:  int64(le.Uint64(p[56:])),
		SerOut:  int64(le.Uint64(p[64:])),
		MemLat:  int64(le.Uint64(p[72:])),
		Static:  int(int32(le.Uint32(p[80:]))),
		Tmpl:    int(int32(le.Uint32(p[84:]))),
		Dst:     int(int32(le.Uint32(p[88:]))),
		Replays: int(le.Uint32(p[92:])),
		Addr:    le.Uint32(p[96:]),
		N:       int(le.Uint16(p[100:])),
	}
	if k := p[102]; int(k) < len(binKindNames) {
		u.Kind = binKindNames[k]
	} else {
		return fmt.Errorf("pipetrace record %d: unknown kind code %d", d.rec, p[102])
	}
	u.Mem = int(p[103])
	flags := p[104]
	u.Mispred = flags&(1<<0) != 0
	u.Squashed = flags&(1<<1) != 0
	u.SerExt = flags&(1<<2) != 0
	opLen := int(p[105])
	off := binUopFixed + opLen
	if off+1 > len(p) {
		return fmt.Errorf("pipetrace record %d: mnemonic overruns payload", d.rec)
	}
	var err error
	if u.Op, err = d.str(p[binUopFixed:off], "mnemonic"); err != nil {
		return err
	}
	nsrc := int(p[off])
	off++
	if off+4*nsrc > len(p) {
		return fmt.Errorf("pipetrace record %d: source list overruns payload", d.rec)
	}
	if nsrc > 0 {
		u.Srcs = make([]int, nsrc)
		for i := range u.Srcs {
			u.Srcs[i] = int(int32(le.Uint32(p[off+4*i:])))
		}
	}
	return nil
}

func (d *binReader) decodeEvent(p []byte, e *TraceEvent) error {
	if len(p) < binEventFixed {
		return fmt.Errorf("pipetrace record %d: event payload %d bytes, need %d", d.rec, len(p), binEventFixed)
	}
	le := binary.LittleEndian
	*e = TraceEvent{
		Type:     "ev",
		Cycle:    int64(le.Uint64(p[0:])),
		Seq:      int64(le.Uint64(p[8:])),
		Template: int(int32(le.Uint32(p[16:]))),
	}
	evLen := int(p[20])
	if binEventFixed+evLen > len(p) {
		return fmt.Errorf("pipetrace record %d: event kind overruns payload", d.rec)
	}
	var err error
	e.Ev, err = d.str(p[binEventFixed:binEventFixed+evLen], "event kind")
	return err
}

// scanBinary is scanPipetrace's binary decoder: it consumes the magic and
// hands fn each record until fn returns false or the stream ends.
func scanBinary(br *bufio.Reader, fn func(u *UopTrace, e *TraceEvent) bool) error {
	d, err := newBinReader(br)
	if err != nil {
		return err
	}
	var u UopTrace
	var e TraceEvent
	for {
		isUop, err := d.next(&u, &e)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		more := false
		if isUop {
			more = fn(&u, nil)
		} else {
			more = fn(nil, &e)
		}
		if !more {
			return nil
		}
	}
}

// sniffBinary reports whether the buffered stream starts with the binary
// pipetrace magic, without consuming it.
func sniffBinary(br *bufio.Reader) bool {
	head, err := br.Peek(len(binMagic))
	return err == nil && bytes.Equal(head, binMagic[:])
}

// ConvertPipetrace re-encodes a binary pipetrace from r as JSONL on w, in
// record order, with the JSONL encoder of NewPipetrace.
func ConvertPipetrace(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, 1<<16)
	if !sniffBinary(br) {
		return fmt.Errorf("pipetrace: input is not a binary pipetrace (no %q magic)", binMagic)
	}
	out := NewPipetrace(w)
	err := scanBinary(br, func(u *UopTrace, e *TraceEvent) bool {
		if u != nil {
			out.Uop(*u)
		} else {
			out.Event(e.Cycle, e.Ev, e.Template, e.Seq)
		}
		return out.err == nil
	})
	if err != nil {
		return err
	}
	return out.Flush()
}
