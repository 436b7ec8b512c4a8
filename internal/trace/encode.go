package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/petri"
)

// writerBatchBytes is the record-batching threshold: encoded records
// accumulate in the writer's own buffer and are handed to the
// underlying io.Writer only when the batch fills (or on Flush / a
// Final record). Batching keeps the encoder off the simulation hot
// path: one engine event costs an append into an in-memory buffer, not
// an io.Writer call.
const writerBatchBytes = 32 * 1024

// Writer streams trace records to an io.Writer in the text format. It
// implements Observer, so a simulator can drive it directly. Records
// are encoded with append-style integer formatting into one reusable
// batch buffer — no per-record allocation, one downstream write per
// writerBatchBytes of trace.
type Writer struct {
	w          io.Writer
	h          Header
	buf        []byte
	err        error // first downstream write error, sticky
	wroteHead  bool
	numPlaces  int
	numTrans   int
	flushEvery bool
}

// NewWriter returns a trace writer for traces described by h.
// If flushEvery is true each record is flushed immediately — the "pipe
// into a live analyzer" mode; otherwise records are batched and handed
// downstream writerBatchBytes at a time, so call Flush (or write a
// Final record) when done.
func NewWriter(w io.Writer, h Header, flushEvery bool) *Writer {
	return &Writer{
		w: w, h: h,
		numPlaces: len(h.Places), numTrans: len(h.Trans),
		flushEvery: flushEvery,
	}
}

func (tw *Writer) writeHeader() {
	if tw.wroteHead {
		return
	}
	tw.wroteHead = true
	tw.buf = append(tw.buf, "pnut-trace 1\nnet "...)
	tw.buf = append(tw.buf, tw.h.Net...)
	tw.buf = append(tw.buf, '\n')
	for i, p := range tw.h.Places {
		tw.buf = append(tw.buf, "place "...)
		tw.buf = strconv.AppendInt(tw.buf, int64(i), 10)
		tw.buf = append(tw.buf, ' ')
		tw.buf = append(tw.buf, p...)
		tw.buf = append(tw.buf, '\n')
	}
	for i, t := range tw.h.Trans {
		tw.buf = append(tw.buf, "trans "...)
		tw.buf = strconv.AppendInt(tw.buf, int64(i), 10)
		tw.buf = append(tw.buf, ' ')
		tw.buf = append(tw.buf, t...)
		tw.buf = append(tw.buf, '\n')
	}
}

func appendDeltas(buf []byte, deltas []Delta) []byte {
	for i, d := range deltas {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(d.Place), 10)
		buf = append(buf, ':')
		if d.Change >= 0 {
			buf = append(buf, '+')
		}
		buf = strconv.AppendInt(buf, int64(d.Change), 10)
	}
	if len(deltas) == 0 {
		buf = append(buf, '-')
	}
	return buf
}

// Record implements Observer.
func (tw *Writer) Record(rec *Record) error {
	if tw.err != nil {
		return tw.err
	}
	tw.writeHeader()
	switch rec.Kind {
	case Initial:
		if len(rec.Marking) != tw.numPlaces {
			return fmt.Errorf("trace: initial marking has %d places, header has %d", len(rec.Marking), tw.numPlaces)
		}
		tw.buf = append(tw.buf, 'I', ' ')
		tw.buf = strconv.AppendInt(tw.buf, int64(rec.Time), 10)
		tw.buf = append(tw.buf, ' ')
		for i, c := range rec.Marking {
			if i > 0 {
				tw.buf = append(tw.buf, ',')
			}
			tw.buf = strconv.AppendInt(tw.buf, int64(c), 10)
		}
	case Start, End:
		if int(rec.Trans) < 0 || int(rec.Trans) >= tw.numTrans {
			return fmt.Errorf("trace: transition id %d out of range", rec.Trans)
		}
		tw.buf = append(tw.buf, byte(rec.Kind), ' ')
		tw.buf = strconv.AppendInt(tw.buf, int64(rec.Time), 10)
		tw.buf = append(tw.buf, ' ')
		tw.buf = strconv.AppendInt(tw.buf, int64(rec.Trans), 10)
		tw.buf = append(tw.buf, ' ')
		tw.buf = appendDeltas(tw.buf, rec.Deltas)
	case Final:
		tw.buf = append(tw.buf, 'F', ' ')
		tw.buf = strconv.AppendInt(tw.buf, int64(rec.Time), 10)
		tw.buf = append(tw.buf, ' ')
		tw.buf = strconv.AppendInt(tw.buf, rec.Starts, 10)
		tw.buf = append(tw.buf, ' ')
		tw.buf = strconv.AppendInt(tw.buf, rec.Ends, 10)
	default:
		return fmt.Errorf("trace: unknown record kind %q", rec.Kind)
	}
	tw.buf = append(tw.buf, '\n')
	if tw.flushEvery || rec.Kind == Final || len(tw.buf) >= writerBatchBytes {
		return tw.Flush()
	}
	return nil
}

// Flush hands the batched records to the underlying writer. A
// downstream write error is sticky: the unwritten batch is retained
// (no records are silently dropped) and every later Record or Flush
// returns the same error, matching bufio.Writer's contract.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	tw.writeHeader()
	if len(tw.buf) == 0 {
		return nil
	}
	n, err := tw.w.Write(tw.buf)
	if err == nil && n < len(tw.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		tw.err = err
		tw.buf = tw.buf[:copy(tw.buf, tw.buf[n:])]
		return err
	}
	tw.buf = tw.buf[:0]
	return nil
}

// Reader parses the text format as a stream. Record lines are decoded
// in place from the scanner's buffer into storage the Reader reuses, so
// reading a trace allocates per trace, not per record; see
// RecordReader.Next for what that means for callers.
type Reader struct {
	s      *bufio.Scanner
	h      Header
	gotHdr bool
	line   int
	// pending holds a record line consumed while scanning past the
	// header. It views the scanner's buffer, so it is valid until the
	// next scan, which only Next makes once pending is used.
	pending []byte
	deltas  []Delta // deltas of the current record
}

// NewReader wraps r. The header is parsed lazily by Header or the first
// Next call.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{s: s}
}

func (tr *Reader) errf(format string, args ...any) error {
	return fmt.Errorf("trace: line %d: %s", tr.line, fmt.Sprintf(format, args...))
}

// scan returns the next line that is neither blank nor a comment,
// trimmed. The line views the scanner's buffer.
func (tr *Reader) scan() ([]byte, bool) {
	for tr.s.Scan() {
		tr.line++
		line := bytes.TrimSpace(tr.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return line, true
	}
	return nil, false
}

// scanErr reports why the last scan failed: the read error, if any,
// wrapped with the number of the line that could not be read.
func (tr *Reader) scanErr() error {
	if err := tr.s.Err(); err != nil {
		return fmt.Errorf("trace: line %d: %w", tr.line+1, err)
	}
	return nil
}

// Header parses (if needed) and returns the trace header.
func (tr *Reader) Header() (Header, error) {
	if tr.gotHdr {
		return tr.h, nil
	}
	b, ok := tr.scan()
	if !ok {
		if err := tr.scanErr(); err != nil {
			return Header{}, err
		}
		return Header{}, tr.errf("empty trace")
	}
	if line := string(b); line != "pnut-trace 1" {
		return Header{}, tr.errf("bad magic %q", line)
	}
	b, ok = tr.scan()
	if !ok {
		if err := tr.scanErr(); err != nil {
			return Header{}, err
		}
	}
	line := string(b)
	if !ok || !strings.HasPrefix(line, "net ") {
		return Header{}, tr.errf("expected net line, got %q", line)
	}
	tr.h.Net = strings.TrimPrefix(line, "net ")
	for {
		b, ok = tr.scan()
		if !ok {
			if err := tr.scanErr(); err != nil {
				return Header{}, err
			}
			break
		}
		var fields [4][]byte
		if split(b, &fields) == 3 && (string(fields[0]) == "place" || string(fields[0]) == "trans") {
			id, err := strconv.Atoi(string(fields[1]))
			if err != nil {
				return Header{}, tr.errf("bad id in %q", b)
			}
			if string(fields[0]) == "place" {
				if id != len(tr.h.Places) {
					return Header{}, tr.errf("place ids out of order at %q", b)
				}
				tr.h.Places = append(tr.h.Places, string(fields[2]))
			} else {
				if id != len(tr.h.Trans) {
					return Header{}, tr.errf("trans ids out of order at %q", b)
				}
				tr.h.Trans = append(tr.h.Trans, string(fields[2]))
			}
			continue
		}
		// First record line: stash it for Next.
		tr.pending = b
		break
	}
	tr.gotHdr = true
	return tr.h, nil
}

// Next returns the next record, or io.EOF after the last one. The
// record's Deltas view the Reader's storage, valid until the next call.
func (tr *Reader) Next() (Record, error) {
	if !tr.gotHdr {
		if _, err := tr.Header(); err != nil {
			return Record{}, err
		}
	}
	line := tr.pending
	tr.pending = nil
	if line == nil {
		var ok bool
		line, ok = tr.scan()
		if !ok {
			if err := tr.s.Err(); err != nil {
				return Record{}, err
			}
			return Record{}, io.EOF
		}
	}
	if len(line) >= 7 && line[1] == ' ' && (line[0] == 'S' || line[0] == 'E') {
		var rec Record
		if tr.event(line, &rec) {
			return rec, nil
		}
	}
	var fields [4][]byte
	nf := split(line, &fields)
	if nf < 2 {
		return Record{}, tr.errf("short record %q", line)
	}
	t, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return Record{}, tr.errf("bad time in %q", line)
	}
	switch string(fields[0]) {
	case "I":
		if nf != 3 {
			return Record{}, tr.errf("bad initial record %q", line)
		}
		m, err := petri.ParseMarking(string(fields[2]))
		if err != nil {
			return Record{}, tr.errf("%v", err)
		}
		if len(m) != len(tr.h.Places) {
			return Record{}, tr.errf("initial marking has %d places, header has %d", len(m), len(tr.h.Places))
		}
		return Record{Kind: Initial, Time: t, Marking: m}, nil
	case "S", "E":
		if nf != 4 {
			return Record{}, tr.errf("bad event record %q", line)
		}
		id, err := strconv.Atoi(string(fields[2]))
		if err != nil || id < 0 || id >= len(tr.h.Trans) {
			return Record{}, tr.errf("bad transition id in %q", line)
		}
		deltas, err := tr.parseDeltas(fields[3])
		if err != nil {
			return Record{}, tr.errf("%v", err)
		}
		k := Start
		if fields[0][0] == 'E' {
			k = End
		}
		return Record{Kind: k, Time: t, Trans: petri.TransID(id), Deltas: deltas}, nil
	case "F":
		if nf != 4 {
			return Record{}, tr.errf("bad final record %q", line)
		}
		starts, err1 := strconv.ParseInt(string(fields[2]), 10, 64)
		ends, err2 := strconv.ParseInt(string(fields[3]), 10, 64)
		if err1 != nil || err2 != nil {
			return Record{}, tr.errf("bad counters in %q", line)
		}
		return Record{Kind: Final, Time: t, Starts: starts, Ends: ends}, nil
	}
	return Record{}, tr.errf("unknown record %q", line)
}

// event decodes a Start or End line in the shape Writer emits into
// rec, a zero Record, in one left-to-right scan: "S|E <time> <trans>
// <p>:<±c>,..." or "-" for no deltas, with single spaces, unsigned
// decimal time and ids of at most maxDigits digits, ids in range and no
// zero change. The deltas go to the Reader's delta storage. It reports
// false for any other line, which the general parser then reads,
// rejects with its error, or accepts in a form event leaves to it
// (tabs, Unicode spaces, signs, longer numbers). On every line event
// accepts, the two decode the same record.
//
// Next calls event only on lines of at least 7 bytes that begin "S " or
// "E ", so that a line of another shape costs three byte compares.
func (tr *Reader) event(line []byte, rec *Record) bool {
	t, i := digits(line, 2)
	if i < 0 || i >= len(line) || line[i] != ' ' {
		return false
	}
	id, i := digits(line, i+1)
	if i < 0 || id >= uint64(len(tr.h.Trans)) || i+1 >= len(line) || line[i] != ' ' {
		return false
	}
	rec.Kind, rec.Time, rec.Trans = Start, int64(t), petri.TransID(id)
	if line[0] == 'E' {
		rec.Kind = End
	}
	out := tr.deltas[:0]
	if i+2 == len(line) && line[i+1] == '-' {
		rec.Deltas = out
		return true
	}
	for i < len(line) {
		// line[i] is the space or comma before the next delta.
		p, j := digits(line, i+1)
		if j < 0 || p >= uint64(len(tr.h.Places)) || j+1 >= len(line) || line[j] != ':' {
			return false
		}
		sign := line[j+1]
		c, k := digits(line, j+2)
		// A change must fit an int, which may have 32 bits.
		if k < 0 || c == 0 || c > math.MaxInt || sign != '+' && sign != '-' || k < len(line) && line[k] != ',' {
			return false
		}
		change := int(c)
		if sign == '-' {
			change = -change
		}
		out = append(out, Delta{Place: petri.PlaceID(p), Change: change})
		i = k
	}
	tr.deltas = out
	rec.Deltas = out
	return true
}

// maxDigits bounds the numbers event reads, so that every one fits an
// int64 without an overflow check.
const maxDigits = 18

// digits reads the unsigned decimal number of 1 to maxDigits digits
// that starts at b[i], returning its value and the index after it, or
// an index of -1 if b[i] starts no such number.
func digits(b []byte, i int) (uint64, int) {
	var v uint64
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if n := i - start; n == 0 || n > maxDigits {
		return 0, -1
	}
	return v, i
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split cuts line around runs of Unicode white space, as strings.Fields
// does. It stores the first len(f) fields, which view line, in f and
// returns the number of fields.
func split(line []byte, f *[4][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		c, w := line[i], 1
		space := asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			if n < len(f) {
				f[n] = line[start:i]
			}
			n++
			start = -1
		}
		i += w
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// parseDeltas decodes a comma-separated delta list ("-" for none) into
// the Reader's delta storage.
func (tr *Reader) parseDeltas(s []byte) ([]Delta, error) {
	out := tr.deltas[:0]
	if string(s) == "-" {
		return out, nil
	}
	for more := true; more; {
		p := s
		if j := bytes.IndexByte(s, ','); j >= 0 {
			p, s = s[:j], s[j+1:]
		} else {
			more = false
		}
		i := bytes.IndexByte(p, ':')
		if i < 0 {
			return nil, fmt.Errorf("bad delta %q", p)
		}
		place, err := strconv.Atoi(string(p[:i]))
		if err != nil || place < 0 || place >= len(tr.h.Places) {
			return nil, fmt.Errorf("bad place in delta %q", p)
		}
		change, err := strconv.Atoi(string(p[i+1:]))
		if err != nil || change == 0 {
			return nil, fmt.Errorf("bad change in delta %q", p)
		}
		out = append(out, Delta{Place: petri.PlaceID(place), Change: change})
	}
	tr.deltas = out
	return out, nil
}

// Copy streams every record from r into obs, returning the record count.
// One Record carries the whole stream, so Copy allocates per call, not
// per record.
func Copy(r RecordReader, obs Observer) (int, error) {
	var rec Record
	for n := 0; ; n++ {
		var err error
		rec, err = r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := obs.Record(&rec); err != nil {
			return n, err
		}
	}
}
