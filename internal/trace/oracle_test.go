package trace

// The text decoder as it stood before Reader parsed lines in place:
// strings.Fields and strings.Split over Scanner.Text, and a fresh
// []Delta per record. It is frozen here, renamed but otherwise
// verbatim, as the oracle FuzzTextReader holds Reader to: the same
// records and the same error text for any input.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/petri"
)

type oracleReader struct {
	s      *bufio.Scanner
	h      Header
	gotHdr bool
	line   int
	// pending holds a record line consumed while scanning past the header.
	pending string
}

func newOracleReader(r io.Reader) *oracleReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &oracleReader{s: s}
}

func (tr *oracleReader) errf(format string, args ...any) error {
	return fmt.Errorf("trace: line %d: %s", tr.line, fmt.Sprintf(format, args...))
}

func (tr *oracleReader) scan() (string, bool) {
	for tr.s.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

func (tr *oracleReader) Header() (Header, error) {
	if tr.gotHdr {
		return tr.h, nil
	}
	line, ok := tr.scan()
	if !ok {
		return Header{}, tr.errf("empty trace")
	}
	if line != "pnut-trace 1" {
		return Header{}, tr.errf("bad magic %q", line)
	}
	line, ok = tr.scan()
	if !ok || !strings.HasPrefix(line, "net ") {
		return Header{}, tr.errf("expected net line, got %q", line)
	}
	tr.h.Net = strings.TrimPrefix(line, "net ")
	for {
		line, ok = tr.scan()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		if len(fields) == 3 && (fields[0] == "place" || fields[0] == "trans") {
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return Header{}, tr.errf("bad id in %q", line)
			}
			if fields[0] == "place" {
				if id != len(tr.h.Places) {
					return Header{}, tr.errf("place ids out of order at %q", line)
				}
				tr.h.Places = append(tr.h.Places, fields[2])
			} else {
				if id != len(tr.h.Trans) {
					return Header{}, tr.errf("trans ids out of order at %q", line)
				}
				tr.h.Trans = append(tr.h.Trans, fields[2])
			}
			continue
		}
		// First record line: stash it for Next.
		tr.pending = line
		break
	}
	tr.gotHdr = true
	return tr.h, nil
}

func (tr *oracleReader) Next() (Record, error) {
	if !tr.gotHdr {
		if _, err := tr.Header(); err != nil {
			return Record{}, err
		}
	}
	line := tr.pending
	tr.pending = ""
	if line == "" {
		var ok bool
		line, ok = tr.scan()
		if !ok {
			if err := tr.s.Err(); err != nil {
				return Record{}, err
			}
			return Record{}, io.EOF
		}
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Record{}, tr.errf("short record %q", line)
	}
	t, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, tr.errf("bad time in %q", line)
	}
	switch fields[0] {
	case "I":
		if len(fields) != 3 {
			return Record{}, tr.errf("bad initial record %q", line)
		}
		m, err := petri.ParseMarking(fields[2])
		if err != nil {
			return Record{}, tr.errf("%v", err)
		}
		if len(m) != len(tr.h.Places) {
			return Record{}, tr.errf("initial marking has %d places, header has %d", len(m), len(tr.h.Places))
		}
		return Record{Kind: Initial, Time: t, Marking: m}, nil
	case "S", "E":
		if len(fields) != 4 {
			return Record{}, tr.errf("bad event record %q", line)
		}
		id, err := strconv.Atoi(fields[2])
		if err != nil || id < 0 || id >= len(tr.h.Trans) {
			return Record{}, tr.errf("bad transition id in %q", line)
		}
		deltas, err := oracleParseDeltas(fields[3], len(tr.h.Places))
		if err != nil {
			return Record{}, tr.errf("%v", err)
		}
		k := Start
		if fields[0] == "E" {
			k = End
		}
		return Record{Kind: k, Time: t, Trans: petri.TransID(id), Deltas: deltas}, nil
	case "F":
		if len(fields) != 4 {
			return Record{}, tr.errf("bad final record %q", line)
		}
		starts, err1 := strconv.ParseInt(fields[2], 10, 64)
		ends, err2 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil {
			return Record{}, tr.errf("bad counters in %q", line)
		}
		return Record{Kind: Final, Time: t, Starts: starts, Ends: ends}, nil
	}
	return Record{}, tr.errf("unknown record %q", line)
}

func oracleParseDeltas(s string, numPlaces int) ([]Delta, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]Delta, 0, len(parts))
	for _, p := range parts {
		i := strings.IndexByte(p, ':')
		if i < 0 {
			return nil, fmt.Errorf("bad delta %q", p)
		}
		place, err := strconv.Atoi(p[:i])
		if err != nil || place < 0 || place >= numPlaces {
			return nil, fmt.Errorf("bad place in delta %q", p)
		}
		change, err := strconv.Atoi(p[i+1:])
		if err != nil || change == 0 {
			return nil, fmt.Errorf("bad change in delta %q", p)
		}
		out = append(out, Delta{Place: petri.PlaceID(place), Change: change})
	}
	return out, nil
}

// The columnar decode path as it stood before decodeBlock filled
// records in place and cursor.uvarint gained its one-byte fast path:
// Next, readBlock and decodeBlock, renamed but otherwise verbatim, with
// their varint cursor. The header, the error helpers and the reader
// state are ColReader's own, which the oracle embeds. FuzzColReader
// holds ColReader to it: the same header, the same records and the same
// error text for any input.

type oracleColReader struct{ *ColReader }

func newOracleColReader(r io.Reader) *oracleColReader {
	return &oracleColReader{NewColReader(r)}
}

func (cr *oracleColReader) Next() (Record, error) {
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
	rec := cr.recs[cr.next]
	cr.next++
	return rec, nil
}

func (cr *oracleColReader) readBlock() error {
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

type oracleCursor struct {
	buf []byte
	pos int
}

func (c *oracleCursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

func (c *oracleCursor) done() bool { return c.pos == len(c.buf) }

func (cr *oracleColReader) decodeBlock(n int, body []byte) error {
	streams, err := splitStreams(body)
	if err != nil {
		return cr.errf("%v", err)
	}
	kinds := streams[streamKinds]
	if len(kinds) != n {
		return cr.errf("kinds stream has %d bytes for %d records", len(kinds), n)
	}
	times := oracleCursor{buf: streams[streamTimes]}
	trans := oracleCursor{buf: streams[streamTrans]}
	deltaCounts := oracleCursor{buf: streams[streamDeltaCounts]}
	dplaces := oracleCursor{buf: streams[streamDPlaces]}
	dchanges := oracleCursor{buf: streams[streamDChanges]}
	markings := oracleCursor{buf: streams[streamMarkings]}
	finals := oracleCursor{buf: streams[streamFinals]}

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
		rec := Record{Kind: Kind(kinds[i]), Time: t}
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
		cr.recs[i] = rec
	}
	for _, s := range [...]struct {
		name string
		c    *oracleCursor
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
