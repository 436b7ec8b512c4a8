package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/petri"
)

// failWriter fails after n bytes to exercise write-error paths.
type failWriter struct {
	n int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterRejectsMalformedRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, header(), false)
	if err := w.Record(&Record{Kind: Initial, Marking: petri.Marking{1}}); err == nil {
		t.Error("short marking accepted")
	}
	if err := w.Record(&Record{Kind: Start, Trans: 99}); err == nil {
		t.Error("out-of-range transition accepted")
	}
	if err := w.Record(&Record{Kind: Kind('Z')}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	fw := &failWriter{n: 10}
	w := NewWriter(fw, header(), true) // flushEvery forces the error out
	rec := Record{Kind: Initial, Time: 0, Marking: petri.Marking{1, 2, 3}}
	err1 := w.Record(&rec)
	err2 := w.Flush()
	if err1 == nil && err2 == nil {
		t.Error("io error swallowed")
	}
}

func TestFlushEveryProducesIncrementalOutput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, header(), true)
	rec := Record{Kind: Initial, Time: 0, Marking: petri.Marking{1, 0, 0}}
	if err := w.Record(&rec); err != nil {
		t.Fatal(err)
	}
	// Without an explicit Flush the record must already be visible.
	if !strings.Contains(buf.String(), "I 0 ") {
		t.Error("flushEvery did not flush")
	}
}

func TestReaderHugeLineRejectedGracefully(t *testing.T) {
	// Construct a trace with an over-long bogus line; the scanner must
	// fail with an error, not hang or panic.
	var b strings.Builder
	b.WriteString("pnut-trace 1\nnet x\nplace 0 a\ntrans 0 t\n")
	b.WriteString("S 0 0 ")
	for i := 0; i < 100_000; i++ {
		b.WriteString("0:+1,")
	}
	b.WriteString("0:+1\n")
	r := NewReader(strings.NewReader(b.String()))
	if _, err := r.Header(); err != nil {
		t.Fatal(err)
	}
	// The long delta list parses (it is within buffer limits) — all
	// deltas target place 0.
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("long line should still parse: %v", err)
	}
	if len(rec.Deltas) != 100_001 {
		t.Errorf("deltas = %d", len(rec.Deltas))
	}
}

// TestReaderHeaderSurfacesReadErrors: a read error while the header is
// parsed is reported as itself, with the number of the line it hit, and
// not as a malformed header.
func TestReaderHeaderSurfacesReadErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	long := "pnut-trace 1\nnet " + strings.Repeat("x", 17<<20) + "\n"
	for _, c := range []struct {
		name string
		r    io.Reader
		want error
		line string
	}{
		{"read error", iotest.ErrReader(boom), boom, "line 1:"},
		{"over-long net line", strings.NewReader(long), bufio.ErrTooLong, "line 2:"},
	} {
		_, err := NewReader(c.r).Header()
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: Header error %v, want %v at %s", c.name, err, c.want, c.line)
		}
	}
}

func TestCollectCloneIndependence(t *testing.T) {
	c := NewCollect(header())
	m := petri.Marking{1, 2, 3}
	rec := Record{Kind: Initial, Marking: m}
	if err := c.Record(&rec); err != nil {
		t.Fatal(err)
	}
	m[0] = 99 // mutate the caller's marking
	if c.Records[0].Marking[0] != 1 {
		t.Error("Collect aliased the record marking")
	}
	deltas := []Delta{{Place: 0, Change: 1}}
	rec2 := Record{Kind: End, Trans: 0, Deltas: deltas}
	if err := c.Record(&rec2); err != nil {
		t.Fatal(err)
	}
	deltas[0].Change = -5
	if c.Records[1].Deltas[0].Change != 1 {
		t.Error("Collect aliased the record deltas")
	}
}

func TestTeeStopsAtFirstError(t *testing.T) {
	boom := errors.New("x")
	calls := 0
	bad := ObserverFunc(func(*Record) error { calls++; return boom })
	never := ObserverFunc(func(*Record) error { t.Error("second observer reached"); return nil })
	tee := Tee{bad, never}
	rec := Record{Kind: Final}
	if err := tee.Record(&rec); !errors.Is(err, boom) {
		t.Errorf("tee error: %v", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Initial: "initial", Start: "start", End: "end", Final: "final",
		Kind('?'): "Kind(?)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v = %q, want %q", byte(k), got, want)
		}
	}
}

// BenchmarkWriter measures the encode hot path the simulator drives:
// batched records (the default) versus flush-per-record streaming.
func BenchmarkWriter(b *testing.B) {
	rec := Record{
		Kind: End, Time: 123456, Trans: 1,
		Deltas: []Delta{{Place: 0, Change: 1}, {Place: 2, Change: -3}},
	}
	for _, mode := range []struct {
		name       string
		flushEvery bool
	}{{"batched", false}, {"flushEvery", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w := NewWriter(io.Discard, header(), mode.flushEvery)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.Record(&rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkReader measures the text decode path, mirroring
// BenchmarkWriter: the shared benchmark trace decoded record by record,
// as Writer emits it and as a person might type it (handwritten: tabs,
// signs and comments), which the event-line decoder leaves to the
// general parser.
func BenchmarkReader(b *testing.B) {
	h, recs := benchTrace(b)
	var buf bytes.Buffer
	w := NewWriter(&buf, h, false)
	for i := range recs {
		if err := w.Record(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	hand := handwritten(buf.Bytes())
	_, want, err := drainRecords(NewReader(bytes.NewReader(buf.Bytes())))
	_, got, err2 := drainRecords(NewReader(bytes.NewReader(hand)))
	if err != nil || err2 != nil || !reflect.DeepEqual(got, want) {
		b.Fatalf("handwritten trace does not read back as the canonical one: %v, %v", err, err2)
	}
	for _, in := range []struct {
		name string
		enc  []byte
	}{{"canonical", buf.Bytes()}, {"handwritten", hand}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(bytes.NewReader(in.enc))
				n, err := Copy(r, Discard)
				if err != nil {
					b.Fatal(err)
				}
				if n != len(recs) {
					b.Fatalf("decoded %d records, want %d", n, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// handwritten rewrites a Writer trace into the same records as a person
// might type them: record fields separated by tabs, an explicit sign on
// every time and id, and a comment before every tenth record.
func handwritten(text []byte) []byte {
	var out bytes.Buffer
	for n, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		f := strings.Fields(line)
		switch f[0] {
		case "I", "S", "E", "F":
			if n%10 == 0 {
				out.WriteString("# by hand\n")
			}
			f[1] = "+" + f[1]
			if f[0] != "I" {
				f[2] = "+" + f[2]
			}
			line = strings.Join(f, "\t")
		}
		out.WriteString(line + "\n")
	}
	return out.Bytes()
}

// TestWriterErrorIsSticky: after a downstream write error the writer
// must keep failing (no silent gap in the trace) and must not drop the
// unwritten batch.
func TestWriterErrorIsSticky(t *testing.T) {
	fw := &failWriter{n: 0} // fails immediately
	w := NewWriter(fw, header(), true)
	rec := Record{Kind: Initial, Time: 0, Marking: petri.Marking{1, 2, 3}}
	err1 := w.Record(&rec)
	if err1 == nil {
		t.Fatal("first Record did not surface the write error")
	}
	if err2 := w.Record(&rec); err2 != err1 {
		t.Errorf("second Record = %v, want sticky %v", err2, err1)
	}
	if err3 := w.Flush(); err3 != err1 {
		t.Errorf("Flush = %v, want sticky %v", err3, err1)
	}
	if len(w.buf) == 0 {
		t.Error("unwritten batch was dropped on error")
	}
}
