package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/petri"
)

// The columnar binary trace format. Where the text codec optimizes for
// debuggability (one record per line, greppable), the columnar codec
// optimizes for full-trace analysis at production sweep sizes: records
// are split into per-field column streams (kinds, time deltas,
// transition ids, delta place/change streams, ...) so that each stream
// is a run of small, similar integers that delta+varint encoding
// shrinks hard, and the streams are grouped into length-prefixed,
// self-contained blocks so that a reader can skip a whole block —
// without decoding it — when its header proves the block holds nothing
// of interest.
//
// Layout:
//
//	magic   "PNUTCOL1" (8 bytes)
//	header  net name, places, transitions (uvarint-length-prefixed strings)
//	block*  uvarint bodyLen, then the body:
//	          uvarint recordCount
//	          byte    kindsMask           (bit set per Kind present)
//	          []byte  place bitmap        (places touched by any delta)
//	          []byte  trans bitmap        (transitions of any S/E record)
//	          stream* uvarint byteLen + bytes, in fixed order:
//	            kinds        one byte per record
//	            times        zigzag varint deltas (first record absolute,
//	                         later records relative to the previous one
//	                         in the same block)
//	            trans        uvarint transition id per S/E record
//	            deltaCounts  uvarint delta count per S/E record
//	            dplaces      uvarint place id per delta
//	            dchanges     zigzag varint change per delta
//	            markings     numPlaces uvarints per I record
//	            finals       zigzag varint starts, ends per F record
//
// The stream ends at a block boundary; there is no trailer (the Final
// record carries the end-of-run semantics, exactly as in the text
// format). Every block decodes independently of every other block,
// which is what makes both skipping and flush-per-record live piping
// work.

// colMagic distinguishes columnar traces; the text format starts with
// "pnut-trace 1" instead, so the first byte alone tells them apart.
const colMagic = "PNUTCOL1"

const (
	// colBlockRecords caps records per block: small enough that a
	// skipping reader has useful granularity, large enough that the
	// per-block header (bitmaps + stream lengths) amortizes away.
	colBlockRecords = 4096
	// colBlockBytes flushes a block early when its column buffers grow
	// past this size, bounding reader memory for delta-heavy traces.
	colBlockBytes = 256 * 1024
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// bitmapLen is the byte length of an n-bit bitmap.
func bitmapLen(n int) int { return (n + 7) / 8 }

func setBit(bm []byte, i int)      { bm[i>>3] |= 1 << (i & 7) }
func hasBit(bm []byte, i int) bool { return bm[i>>3]&(1<<(i&7)) != 0 }
func clearBitmap(bm []byte)        { clear(bm) }

func anyOverlap(bm []byte, keep []bool) bool {
	n := len(keep)
	if max := len(bm) * 8; n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		if keep[i] && hasBit(bm, i) {
			return true
		}
	}
	return false
}

// ColWriter streams trace records to an io.Writer in the columnar
// binary format. It implements Observer, so a simulator can drive it
// directly, and it follows the text Writer's batching contract: records
// accumulate in column buffers, blocks accumulate in one output buffer
// that is handed downstream once it reaches writerBatchBytes, and a
// downstream write error is sticky with the unwritten bytes retained.
type ColWriter struct {
	w          io.Writer
	h          Header
	numPlaces  int
	numTrans   int
	flushEvery bool
	err        error // first downstream write error, sticky
	wroteHead  bool

	// Column buffers for the block under construction.
	n           int
	lastTime    petri.Time
	kindsMask   byte
	kinds       []byte
	times       []byte
	trans       []byte
	deltaCounts []byte
	dplaces     []byte
	dchanges    []byte
	markings    []byte
	finals      []byte
	placeBits   []byte
	transBits   []byte

	out []byte // assembled magic/header/blocks awaiting the downstream write
}

// NewColWriter returns a columnar trace writer for traces described by
// h. If flushEvery is true every record becomes its own block and is
// handed downstream immediately — the "pipe into a live analyzer" mode;
// otherwise blocks are cut at colBlockRecords/colBlockBytes and batched,
// so call Flush (or write a Final record) when done.
func NewColWriter(w io.Writer, h Header, flushEvery bool) *ColWriter {
	return &ColWriter{
		w: w, h: h,
		numPlaces: len(h.Places), numTrans: len(h.Trans),
		flushEvery: flushEvery,
		placeBits:  make([]byte, bitmapLen(len(h.Places))),
		transBits:  make([]byte, bitmapLen(len(h.Trans))),
	}
}

func (cw *ColWriter) writeHeader() {
	if cw.wroteHead {
		return
	}
	cw.wroteHead = true
	cw.out = append(cw.out, colMagic...)
	cw.out = appendString(cw.out, cw.h.Net)
	cw.out = binary.AppendUvarint(cw.out, uint64(cw.numPlaces))
	for _, p := range cw.h.Places {
		cw.out = appendString(cw.out, p)
	}
	cw.out = binary.AppendUvarint(cw.out, uint64(cw.numTrans))
	for _, t := range cw.h.Trans {
		cw.out = appendString(cw.out, t)
	}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Record implements Observer. The record is validated in full before
// any column buffer is touched, so a rejected record never leaves the
// block in a half-appended, undecodable state.
func (cw *ColWriter) Record(rec *Record) error {
	if cw.err != nil {
		return cw.err
	}
	switch rec.Kind {
	case Initial:
		if len(rec.Marking) != cw.numPlaces {
			return fmt.Errorf("trace: initial marking has %d places, header has %d", len(rec.Marking), cw.numPlaces)
		}
		for _, c := range rec.Marking {
			cw.markings = binary.AppendUvarint(cw.markings, uint64(c))
		}
	case Start, End:
		if int(rec.Trans) < 0 || int(rec.Trans) >= cw.numTrans {
			return fmt.Errorf("trace: transition id %d out of range", rec.Trans)
		}
		for _, d := range rec.Deltas {
			if int(d.Place) < 0 || int(d.Place) >= cw.numPlaces {
				return fmt.Errorf("trace: delta place id %d out of range", d.Place)
			}
		}
		cw.trans = binary.AppendUvarint(cw.trans, uint64(rec.Trans))
		setBit(cw.transBits, int(rec.Trans))
		cw.deltaCounts = binary.AppendUvarint(cw.deltaCounts, uint64(len(rec.Deltas)))
		for _, d := range rec.Deltas {
			cw.dplaces = binary.AppendUvarint(cw.dplaces, uint64(d.Place))
			setBit(cw.placeBits, int(d.Place))
			cw.dchanges = binary.AppendUvarint(cw.dchanges, zigzag(int64(d.Change)))
		}
	case Final:
		cw.finals = binary.AppendUvarint(cw.finals, zigzag(rec.Starts))
		cw.finals = binary.AppendUvarint(cw.finals, zigzag(rec.Ends))
	default:
		return fmt.Errorf("trace: unknown record kind %q", rec.Kind)
	}
	cw.kinds = append(cw.kinds, byte(rec.Kind))
	cw.kindsMask |= kindBit(rec.Kind)
	cw.times = binary.AppendUvarint(cw.times, zigzag(rec.Time-cw.lastTime))
	cw.lastTime = rec.Time
	cw.n++
	if cw.flushEvery || rec.Kind == Final || cw.n >= colBlockRecords || cw.blockBytes() >= colBlockBytes {
		cw.cutBlock()
		if cw.flushEvery || rec.Kind == Final || len(cw.out) >= writerBatchBytes {
			return cw.Flush()
		}
	}
	return nil
}

func kindBit(k Kind) byte {
	switch k {
	case Initial:
		return 1
	case Start:
		return 2
	case End:
		return 4
	case Final:
		return 8
	}
	return 0
}

func (cw *ColWriter) blockBytes() int {
	return len(cw.kinds) + len(cw.times) + len(cw.trans) + len(cw.deltaCounts) +
		len(cw.dplaces) + len(cw.dchanges) + len(cw.markings) + len(cw.finals)
}

// cutBlock assembles the buffered columns into one length-prefixed
// block appended to the output buffer, and resets the column state.
func (cw *ColWriter) cutBlock() {
	if cw.n == 0 {
		return
	}
	cw.writeHeader()
	streams := [...][]byte{
		cw.kinds, cw.times, cw.trans, cw.deltaCounts,
		cw.dplaces, cw.dchanges, cw.markings, cw.finals,
	}
	bodyLen := uvarintLen(uint64(cw.n)) + 1 + len(cw.placeBits) + len(cw.transBits)
	for _, s := range streams {
		bodyLen += uvarintLen(uint64(len(s))) + len(s)
	}
	cw.out = binary.AppendUvarint(cw.out, uint64(bodyLen))
	cw.out = binary.AppendUvarint(cw.out, uint64(cw.n))
	cw.out = append(cw.out, cw.kindsMask)
	cw.out = append(cw.out, cw.placeBits...)
	cw.out = append(cw.out, cw.transBits...)
	for _, s := range streams {
		cw.out = binary.AppendUvarint(cw.out, uint64(len(s)))
		cw.out = append(cw.out, s...)
	}
	cw.n = 0
	cw.lastTime = 0
	cw.kindsMask = 0
	cw.kinds = cw.kinds[:0]
	cw.times = cw.times[:0]
	cw.trans = cw.trans[:0]
	cw.deltaCounts = cw.deltaCounts[:0]
	cw.dplaces = cw.dplaces[:0]
	cw.dchanges = cw.dchanges[:0]
	cw.markings = cw.markings[:0]
	cw.finals = cw.finals[:0]
	clearBitmap(cw.placeBits)
	clearBitmap(cw.transBits)
}

// Flush cuts the pending block (if any) and hands all buffered bytes to
// the underlying writer. A downstream write error is sticky and the
// unwritten bytes are retained, matching the text Writer's contract.
func (cw *ColWriter) Flush() error {
	if cw.err != nil {
		return cw.err
	}
	cw.cutBlock()
	cw.writeHeader()
	if len(cw.out) == 0 {
		return nil
	}
	n, err := cw.w.Write(cw.out)
	if err == nil && n < len(cw.out) {
		err = io.ErrShortWrite
	}
	if err != nil {
		cw.err = err
		cw.out = cw.out[:copy(cw.out, cw.out[n:])]
		return err
	}
	cw.out = cw.out[:0]
	return nil
}

// ColStats counts what a ColReader did, for `pnut-trace inspect` and
// for verifying that block skipping actually skipped.
type ColStats struct {
	Blocks        int64 // blocks decoded
	SkippedBlocks int64 // blocks discarded without decoding
	SkippedBytes  int64 // body bytes of the skipped blocks
	Records       int64 // records decoded (skipped blocks excluded)
}

// ColReader decodes the columnar binary format as a stream with the
// same Header/Next surface as the text Reader. Records returned by Next
// share per-block backing storage for their delta slices; like
// Observer, callers must not retain them past the next call (Clone to
// keep one).
type ColReader struct {
	br     *bufio.Reader
	h      Header
	gotHdr bool
	err    error // sticky decode error

	keepPlaces []bool
	keepTrans  []bool
	skipping   bool

	stats ColStats

	// Decoded current block, served one record per Next call.
	recs []Record
	next int

	body  []byte // reusable block body buffer
	arena []Delta
}

// NewColReader wraps r. The header is parsed lazily by Header or the
// first Next call.
func NewColReader(r io.Reader) *ColReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	return &ColReader{br: br}
}

// Skip configures block skipping: a block whose records are all
// Start/End events, none of which involves a kept transition or touches
// a kept place, is discarded from the stream without being decoded.
// This mirrors exactly the records a Filter over the same keep sets
// would drop, so Filter output is identical with or without skipping —
// the skipped blocks just never cost a decode. Slices shorter than the
// header are treated as all-false beyond their length; nil keeps
// nothing of that dimension.
func (cr *ColReader) Skip(keepPlaces, keepTrans []bool) {
	cr.keepPlaces = keepPlaces
	cr.keepTrans = keepTrans
	cr.skipping = true
}

// Stats reports block-level reader activity so far.
func (cr *ColReader) Stats() ColStats { return cr.stats }

func (cr *ColReader) errf(format string, args ...any) error {
	err := fmt.Errorf("trace: col: "+format, args...)
	cr.err = err
	return err
}

// readUvarint reads one uvarint from the underlying stream. An EOF on
// the very first byte is reported as io.EOF (clean boundary); anything
// partial is an unexpected EOF.
func (cr *ColReader) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(cr.br)
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, err
	}
	return v, nil
}

func (cr *ColReader) readString(what string, maxLen uint64) (string, error) {
	n, err := cr.readUvarint()
	if err != nil {
		return "", cr.errf("reading %s length: %w", what, noEOF(err))
	}
	if n > maxLen {
		return "", cr.errf("%s length %d exceeds limit %d", what, n, maxLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(cr.br, buf); err != nil {
		return "", cr.errf("reading %s: %w", what, noEOF(err))
	}
	return string(buf), nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside the
// header or a block, running out of bytes is truncation, not a clean
// end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

const colMaxNames = 1 << 20 // sanity cap on place/transition counts

// Header parses (if needed) and returns the trace header.
func (cr *ColReader) Header() (Header, error) {
	if cr.gotHdr {
		return cr.h, nil
	}
	if cr.err != nil {
		return Header{}, cr.err
	}
	magic := make([]byte, len(colMagic))
	if _, err := io.ReadFull(cr.br, magic); err != nil {
		return Header{}, cr.errf("reading magic: %w", noEOF(err))
	}
	if string(magic) != colMagic {
		return Header{}, cr.errf("bad magic %q", magic)
	}
	net, err := cr.readString("net name", 1<<20)
	if err != nil {
		return Header{}, err
	}
	cr.h.Net = net
	for _, dim := range []struct {
		what  string
		names *[]string
	}{{"place", &cr.h.Places}, {"trans", &cr.h.Trans}} {
		n, err := cr.readUvarint()
		if err != nil {
			return Header{}, cr.errf("reading %s count: %w", dim.what, noEOF(err))
		}
		if n > colMaxNames {
			return Header{}, cr.errf("%s count %d exceeds limit", dim.what, n)
		}
		*dim.names = make([]string, n)
		for i := range *dim.names {
			s, err := cr.readString(dim.what+" name", 1<<16)
			if err != nil {
				return Header{}, err
			}
			(*dim.names)[i] = s
		}
	}
	cr.gotHdr = true
	return cr.h, nil
}

// Next returns the next record, or io.EOF after the last one.
func (cr *ColReader) Next() (Record, error) {
	if !cr.gotHdr {
		if _, err := cr.Header(); err != nil {
			return Record{}, err
		}
	}
	if cr.err != nil {
		return Record{}, cr.err
	}
	for cr.next >= len(cr.recs) {
		if err := cr.readBlock(); err != nil {
			return Record{}, err
		}
	}
	cr.next++
	return cr.recs[cr.next-1], nil
}

// readBlock reads the next block: either discarding it via the skip
// path or decoding it into cr.recs.
func (cr *ColReader) readBlock() error {
	bodyLen, err := cr.readUvarint()
	if err == io.EOF {
		return io.EOF // clean end of stream at a block boundary
	}
	if err != nil {
		return cr.errf("reading block length: %w", err)
	}
	const maxBlock = 1 << 26 // far above any block the writer cuts
	if bodyLen == 0 || bodyLen > maxBlock {
		return cr.errf("implausible block length %d", bodyLen)
	}
	// Block prelude: record count, kinds mask, bitmaps. Read it off the
	// stream directly so a skippable block's streams are never even
	// copied out of the bufio buffer.
	n, err := cr.readUvarint()
	if err != nil {
		return cr.errf("reading record count: %w", noEOF(err))
	}
	preludeLen := uvarintLen(n) + 1 + bitmapLen(len(cr.h.Places)) + bitmapLen(len(cr.h.Trans))
	if uint64(preludeLen) > bodyLen {
		return cr.errf("block length %d too short for its prelude", bodyLen)
	}
	// Each record costs at least one kinds byte plus one times byte.
	if n > bodyLen/2+1 {
		return cr.errf("implausible record count %d in %d-byte block", n, bodyLen)
	}
	kindsMask, err := cr.br.ReadByte()
	if err != nil {
		return cr.errf("reading kinds mask: %w", noEOF(err))
	}
	pb := bitmapLen(len(cr.h.Places))
	tb := bitmapLen(len(cr.h.Trans))
	if cap(cr.body) < pb+tb {
		sz := 64 * 1024
		if pb+tb > sz {
			sz = pb + tb
		}
		cr.body = make([]byte, 0, sz)
	}
	bitmaps := cr.body[:pb+tb]
	if _, err := io.ReadFull(cr.br, bitmaps); err != nil {
		return cr.errf("reading bitmaps: %w", noEOF(err))
	}
	placeBits, transBits := bitmaps[:pb], bitmaps[pb:]
	rest := int(bodyLen) - preludeLen

	if cr.skipping && kindsMask&^(kindBit(Start)|kindBit(End)) == 0 &&
		!anyOverlap(placeBits, cr.keepPlaces) && !anyOverlap(transBits, cr.keepTrans) {
		if _, err := cr.br.Discard(rest); err != nil {
			return cr.errf("skipping block: %w", noEOF(err))
		}
		cr.stats.SkippedBlocks++
		cr.stats.SkippedBytes += int64(bodyLen)
		return nil
	}

	if cap(cr.body) < rest {
		cr.body = make([]byte, rest)
	}
	body := cr.body[:rest]
	if _, err := io.ReadFull(cr.br, body); err != nil {
		return cr.errf("reading block body: %w", noEOF(err))
	}
	cr.stats.Blocks++
	cr.stats.Records += int64(n)
	return cr.decodeBlock(int(n), body)
}

// colStreams indexes the fixed stream order of a block body.
const (
	streamKinds = iota
	streamTimes
	streamTrans
	streamDeltaCounts
	streamDPlaces
	streamDChanges
	streamMarkings
	streamFinals
	numStreams
)

// splitStreams slices the length-prefixed streams out of a block body.
func splitStreams(body []byte) ([numStreams][]byte, error) {
	var streams [numStreams][]byte
	for i := 0; i < numStreams; i++ {
		n, sz := binary.Uvarint(body)
		if sz <= 0 || n > uint64(len(body)-sz) {
			return streams, fmt.Errorf("stream %d length corrupt", i)
		}
		streams[i] = body[sz : sz+int(n)]
		body = body[sz+int(n):]
	}
	if len(body) != 0 {
		return streams, fmt.Errorf("%d trailing bytes after streams", len(body))
	}
	return streams, nil
}

// cursor decodes varints sequentially from one stream.
type cursor struct {
	buf []byte
	pos int
}

func (c *cursor) uvarint() (uint64, bool) {
	if c.pos < len(c.buf) && c.buf[c.pos] < 0x80 { // almost every value in a block
		c.pos++
		return uint64(c.buf[c.pos-1]), true
	}
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

func (c *cursor) done() bool { return c.pos == len(c.buf) }

func (cr *ColReader) decodeBlock(n int, body []byte) error {
	streams, err := splitStreams(body)
	if err != nil {
		return cr.errf("%v", err)
	}
	kinds := streams[streamKinds]
	if len(kinds) != n {
		return cr.errf("kinds stream has %d bytes for %d records", len(kinds), n)
	}
	times := cursor{buf: streams[streamTimes]}
	trans := cursor{buf: streams[streamTrans]}
	deltaCounts := cursor{buf: streams[streamDeltaCounts]}
	dplaces := cursor{buf: streams[streamDPlaces]}
	dchanges := cursor{buf: streams[streamDChanges]}
	markings := cursor{buf: streams[streamMarkings]}
	finals := cursor{buf: streams[streamFinals]}

	if cap(cr.recs) < n {
		cr.recs = make([]Record, n)
	}
	cr.recs = cr.recs[:n]
	// Records sub-slice the delta arena, so it must not reallocate
	// mid-block: size it to the delta count up front (one varint per
	// delta in the dplaces stream — count the terminator bytes).
	totalDeltas := 0
	for _, b := range streams[streamDPlaces] {
		if b < 0x80 {
			totalDeltas++
		}
	}
	if cap(cr.arena) < totalDeltas {
		cr.arena = make([]Delta, 0, totalDeltas)
	}
	cr.arena = cr.arena[:0]
	cr.next = 0
	var t petri.Time
	for i := 0; i < n; i++ {
		dt, ok := times.uvarint()
		if !ok {
			return cr.errf("times stream truncated at record %d", i)
		}
		t += unzigzag(dt)
		// Fill the record in place: every field is set, or reset, here.
		rec := &cr.recs[i]
		*rec = Record{Kind: Kind(kinds[i]), Time: t}
		switch rec.Kind {
		case Initial:
			m := make(petri.Marking, len(cr.h.Places))
			for p := range m {
				c, ok := markings.uvarint()
				if !ok {
					return cr.errf("markings stream truncated at record %d", i)
				}
				m[p] = int(c)
			}
			rec.Marking = m
		case Start, End:
			id, ok := trans.uvarint()
			if !ok {
				return cr.errf("trans stream truncated at record %d", i)
			}
			if id >= uint64(len(cr.h.Trans)) {
				return cr.errf("transition id %d out of range at record %d", id, i)
			}
			rec.Trans = petri.TransID(id)
			nd, ok := deltaCounts.uvarint()
			if !ok {
				return cr.errf("delta-count stream truncated at record %d", i)
			}
			if nd > uint64(len(streams[streamDPlaces])-dplaces.pos) {
				return cr.errf("implausible delta count %d at record %d", nd, i)
			}
			lo := len(cr.arena)
			for d := uint64(0); d < nd; d++ {
				p, ok1 := dplaces.uvarint()
				ch, ok2 := dchanges.uvarint()
				if !ok1 || !ok2 {
					return cr.errf("delta streams truncated at record %d", i)
				}
				if p >= uint64(len(cr.h.Places)) {
					return cr.errf("delta place id %d out of range at record %d", p, i)
				}
				change := unzigzag(ch)
				if change == 0 {
					return cr.errf("zero delta change at record %d", i)
				}
				cr.arena = append(cr.arena, Delta{Place: petri.PlaceID(p), Change: int(change)})
			}
			if len(cr.arena) > lo {
				rec.Deltas = cr.arena[lo:len(cr.arena):len(cr.arena)]
			}
		case Final:
			s, ok1 := finals.uvarint()
			e, ok2 := finals.uvarint()
			if !ok1 || !ok2 {
				return cr.errf("finals stream truncated at record %d", i)
			}
			rec.Starts = unzigzag(s)
			rec.Ends = unzigzag(e)
		default:
			return cr.errf("unknown record kind %q at record %d", byte(rec.Kind), i)
		}
	}
	for _, s := range [...]struct {
		name string
		c    *cursor
	}{
		{"times", &times}, {"trans", &trans}, {"delta-count", &deltaCounts},
		{"dplaces", &dplaces}, {"dchanges", &dchanges}, {"markings", &markings}, {"finals", &finals},
	} {
		if !s.c.done() {
			return cr.errf("%s stream has %d trailing bytes", s.name, len(s.c.buf)-s.c.pos)
		}
	}
	return nil
}
