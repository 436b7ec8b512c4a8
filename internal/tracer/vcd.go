package tracer

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteVCD dumps the tracer's signals as a Value Change Dump — the
// standard EDA waveform format — so traces can be inspected in any
// modern wave viewer (GTKWave etc.). This is the natural descendant of
// the paper's logic-state-analyzer display: each probe becomes a VCD
// variable, each state change a timestamped value change.
//
// Values are emitted as binary vectors wide enough for the largest
// value the signal reaches. Markers are emitted as $comment records in
// the header.
func (t *Tracer) WriteVCD(w io.Writer, timescale string) error {
	if len(t.signals) == 0 {
		return fmt.Errorf("tracer: no signals to dump")
	}
	if timescale == "" {
		timescale = "1ns"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "$comment pnut-go trace of net %s $end\n", t.seq.Header.Net)
	for _, m := range t.markers {
		fmt.Fprintf(&b, "$comment marker %s at %d $end\n", m.Name, m.Time)
	}
	fmt.Fprintf(&b, "$timescale %s $end\n", timescale)
	fmt.Fprintf(&b, "$scope module %s $end\n", vcdIdent(t.seq.Header.Net))
	ids := make([]string, len(t.signals))
	widths := make([]int, len(t.signals))
	for i, s := range t.signals {
		ids[i] = vcdID(i)
		widths[i] = bitsFor(s.max)
		fmt.Fprintf(&b, "$var wire %d %s %s $end\n", widths[i], ids[i], vcdIdent(s.Label))
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")

	// Initial values.
	b.WriteString("$dumpvars\n")
	last := make([]int64, len(t.signals))
	for i, s := range t.signals {
		v := int64(0)
		if len(s.values) > 0 {
			v = s.values[0]
		}
		last[i] = v
		writeChange(&b, v, widths[i], ids[i])
	}
	b.WriteString("$end\n")

	// Emit the final value each signal holds at every distinct time.
	n := t.seq.Len()
	for si := 0; si < n; {
		tm := t.seq.Time(si)
		end := si
		for end < n && t.seq.Time(end) == tm {
			end++
		}
		lastIdx := end - 1
		wrote := false
		for i, s := range t.signals {
			v := s.values[lastIdx]
			if v != last[i] {
				if !wrote {
					fmt.Fprintf(&b, "#%d\n", tm)
					wrote = true
				}
				writeChange(&b, v, widths[i], ids[i])
				last[i] = v
			}
		}
		si = end
	}
	fmt.Fprintf(&b, "#%d\n", t.seq.FinalTime)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeChange(b *strings.Builder, v int64, width int, id string) {
	if v < 0 {
		v = 0
	}
	if width == 1 {
		fmt.Fprintf(b, "%d%s\n", v&1, id)
		return
	}
	fmt.Fprintf(b, "b%s %s\n", strconv.FormatInt(v, 2), id)
}

// vcdID yields the compact printable identifier for variable i.
func vcdID(i int) string {
	const first, span = 33, 94 // '!' .. '~'
	s := ""
	for {
		s += string(rune(first + i%span))
		i /= span
		if i == 0 {
			return s
		}
		i--
	}
}

// vcdIdent sanitizes a name for VCD identifiers (no whitespace).
func vcdIdent(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
	if s == "" {
		return "_"
	}
	return s
}

func bitsFor(max int64) int {
	bits := 1
	for max > 1 {
		max >>= 1
		bits++
	}
	return bits
}
