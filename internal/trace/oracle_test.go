package trace

// The text decoder as it stood before Reader parsed lines in place:
// strings.Fields and strings.Split over Scanner.Text, and a fresh
// []Delta per record. It is frozen here, renamed but otherwise
// verbatim, as the oracle FuzzTextReader holds Reader to: the same
// records and the same error text for any input.

import (
	"bufio"
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
