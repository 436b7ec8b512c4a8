package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/petri"
)

// collectAll drains a reader into cloned records (the reader's own
// records share block-arena storage).
func collectAll(t *testing.T, r RecordReader) (Header, []Record) {
	t.Helper()
	h, err := r.Header()
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return h, out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec.Clone())
	}
}

func encodeCol(t *testing.T, h Header, recs []Record, flushEvery bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewColWriter(&buf, h, flushEvery)
	for i := range recs {
		if err := w.Record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeText(t *testing.T, h Header, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, h, false)
	for i := range recs {
		if err := w.Record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func recordsEqual(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i].Clone(), got[i].Clone()
		// Normalize nil-vs-empty deltas: both encode as "no deltas".
		if len(w.Deltas) == 0 {
			w.Deltas = nil
		}
		if len(g.Deltas) == 0 {
			g.Deltas = nil
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestColRoundTrip(t *testing.T) {
	for _, flushEvery := range []bool{false, true} {
		recs := sampleRecords()
		enc := encodeCol(t, header(), recs, flushEvery)
		h, got := collectAll(t, NewColReader(bytes.NewReader(enc)))
		if !reflect.DeepEqual(h, header()) {
			t.Errorf("flushEvery=%v: header = %+v", flushEvery, h)
		}
		recordsEqual(t, recs, got)
	}
}

// TestColSmallerThanText: on a realistic record mix the columnar
// encoding must be measurably smaller than the text encoding.
func TestColSmallerThanText(t *testing.T) {
	h, recs := genTrace(rand.New(rand.NewSource(7)), 20_000)
	text := encodeText(t, h, recs)
	col := encodeCol(t, h, recs, false)
	if len(col) >= len(text)/2 {
		t.Errorf("col = %d bytes, text = %d bytes; want col < text/2", len(col), len(text))
	}
}

// genTrace builds a random but structurally valid trace: an initial
// marking, matched start/end events with nondecreasing times, and a
// final record.
func genTrace(rng *rand.Rand, events int) (Header, []Record) {
	h := Header{
		Net:    "gen",
		Places: []string{"p0", "p1", "p2", "p3", "p4", "longer_place_name"},
		Trans:  []string{"t0", "t1", "t2", "fire_long_name"},
	}
	m := make(petri.Marking, len(h.Places))
	for i := range m {
		m[i] = rng.Intn(5)
	}
	recs := []Record{{Kind: Initial, Time: 0, Marking: m}}
	var now petri.Time
	var starts, ends int64
	for i := 0; i < events; i++ {
		now += petri.Time(rng.Intn(4))
		kind := Start
		if rng.Intn(2) == 0 {
			kind = End
		}
		nd := rng.Intn(4)
		var deltas []Delta
		for d := 0; d < nd; d++ {
			ch := rng.Intn(6) - 3
			if ch == 0 {
				ch = 1
			}
			deltas = append(deltas, Delta{
				Place:  petri.PlaceID(rng.Intn(len(h.Places))),
				Change: ch,
			})
		}
		if kind == Start {
			starts++
		} else {
			ends++
		}
		recs = append(recs, Record{
			Kind: kind, Time: now,
			Trans:  petri.TransID(rng.Intn(len(h.Trans))),
			Deltas: deltas,
		})
	}
	recs = append(recs, Record{Kind: Final, Time: now + 1, Starts: starts, Ends: ends})
	return h, recs
}

// TestColTextIdentityProperty is the convert-path property: for
// generated traces, text -> records -> col -> records -> text is
// byte-identical to the original text encoding. Sizes straddle the
// block thresholds so multi-block traces are covered.
func TestColTextIdentityProperty(t *testing.T) {
	for _, events := range []int{0, 1, 100, colBlockRecords - 2, colBlockRecords + 10, 3 * colBlockRecords} {
		rng := rand.New(rand.NewSource(int64(events) + 1))
		h, recs := genTrace(rng, events)
		t1 := encodeText(t, h, recs)

		r1, format, err := OpenReader(bytes.NewReader(t1), FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		if format != FormatText {
			t.Fatalf("sniffed %q for text input", format)
		}
		h1, recs1 := collectAll(t, r1)
		col := encodeCol(t, h1, recs1, false)

		r2, format, err := OpenReader(bytes.NewReader(col), FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		if format != FormatCol {
			t.Fatalf("sniffed %q for col input", format)
		}
		h2, recs2 := collectAll(t, r2)
		t2 := encodeText(t, h2, recs2)
		if !bytes.Equal(t1, t2) {
			t.Fatalf("events=%d: text->col->text not identity (%d vs %d bytes)", events, len(t1), len(t2))
		}
	}
}

// TestColSkipMatchesFilter: with block skipping configured from the
// filter's keep sets, the filtered output must be byte-identical to the
// unskipped path, and blocks must actually have been skipped.
func TestColSkipMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, recs := genTrace(rng, 3*colBlockRecords)
	// flushEvery gives one block per record: maximal skip opportunity.
	enc := encodeCol(t, h, recs, true)

	run := func(skip bool) ([]byte, ColStats) {
		var out bytes.Buffer
		w := NewWriter(&out, h, false)
		f, err := NewFilter(h, w, []string{"p1"}, []string{"t2"})
		if err != nil {
			t.Fatal(err)
		}
		cr := NewColReader(bytes.NewReader(enc))
		if skip {
			keepP, keepT := f.Keep()
			cr.Skip(keepP, keepT)
		}
		if _, err := cr.Header(); err != nil {
			t.Fatal(err)
		}
		if _, err := Copy(cr, f); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), cr.Stats()
	}

	full, fullStats := run(false)
	skipped, skipStats := run(true)
	if !bytes.Equal(full, skipped) {
		t.Fatal("filtered output differs with block skipping enabled")
	}
	if skipStats.SkippedBlocks == 0 {
		t.Error("no blocks were skipped")
	}
	if fullStats.SkippedBlocks != 0 {
		t.Error("blocks skipped without Skip configured")
	}
	if skipStats.Records >= fullStats.Records {
		t.Errorf("skip decoded %d records, full decoded %d", skipStats.Records, fullStats.Records)
	}
}

// TestColTruncationNeverPanics: every prefix of a valid encoding must
// yield clean records then an error (or io.EOF exactly at a block
// boundary) — never a panic, never garbage records.
func TestColTruncationNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h, recs := genTrace(rng, 300)
	enc := encodeCol(t, h, recs, false)
	for cut := 0; cut < len(enc); cut++ {
		r := NewColReader(bytes.NewReader(enc[:cut]))
		for {
			_, err := r.Next()
			if err != nil {
				break
			}
		}
	}
}

// TestColCorruptionErrors flips bytes in a valid encoding; the reader
// must error (or, rarely, still parse — a flipped varint payload can
// stay structurally valid) but never panic or loop forever.
func TestColCorruptionErrors(t *testing.T) {
	enc := encodeCol(t, header(), sampleRecords(), false)
	for pos := 0; pos < len(enc); pos++ {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0xff
		r := NewColReader(bytes.NewReader(mut))
		for n := 0; ; n++ {
			_, err := r.Next()
			if err != nil {
				break
			}
			if n > len(sampleRecords())+100 {
				t.Fatalf("flip at %d: reader produced runaway records", pos)
			}
		}
	}
}

func TestColWriterRejectsMalformedRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewColWriter(&buf, header(), false)
	if err := w.Record(&Record{Kind: Initial, Marking: petri.Marking{1}}); err == nil {
		t.Error("short marking accepted")
	}
	if err := w.Record(&Record{Kind: Start, Trans: 99}); err == nil {
		t.Error("out-of-range transition accepted")
	}
	if err := w.Record(&Record{Kind: Start, Trans: 0, Deltas: []Delta{{Place: 99, Change: 1}}}); err == nil {
		t.Error("out-of-range delta place accepted")
	}
	if err := w.Record(&Record{Kind: Kind('Z')}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestColWriterRejectedRecordLeavesBlockConsistent: a record rejected
// mid-validation (bad delta place after a valid transition id) must not
// half-append to the column buffers — the records around it still
// encode to a decodable trace.
func TestColWriterRejectedRecordLeavesBlockConsistent(t *testing.T) {
	var buf bytes.Buffer
	w := NewColWriter(&buf, header(), false)
	recs := sampleRecords()
	for i := range recs[:3] {
		if err := w.Record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	bad := Record{Kind: Start, Time: 6, Trans: 1,
		Deltas: []Delta{{Place: 0, Change: -1}, {Place: 99, Change: 1}}}
	if err := w.Record(&bad); err == nil {
		t.Fatal("out-of-range delta place accepted")
	}
	for i := range recs[3:] {
		if err := w.Record(&recs[3+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, got := collectAll(t, NewColReader(bytes.NewReader(buf.Bytes())))
	recordsEqual(t, recs, got)
}

// TestColWriterErrorIsSticky mirrors the text writer's contract: after
// a downstream write error every later Record/Flush fails the same way
// and the unwritten bytes are retained.
func TestColWriterErrorIsSticky(t *testing.T) {
	fw := &failWriter{n: 0}
	w := NewColWriter(fw, header(), true)
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
	if len(w.out) == 0 {
		t.Error("unwritten batch was dropped on error")
	}
}

// TestColFlushEveryIncremental: in flushEvery mode each record is a
// complete, immediately decodable block — the live-piping contract.
func TestColFlushEveryIncremental(t *testing.T) {
	var buf bytes.Buffer
	w := NewColWriter(&buf, header(), true)
	rec := Record{Kind: Initial, Time: 0, Marking: petri.Marking{1, 0, 0}}
	if err := w.Record(&rec); err != nil {
		t.Fatal(err)
	}
	r := NewColReader(bytes.NewReader(buf.Bytes()))
	got, err := r.Next()
	if err != nil {
		t.Fatalf("record not decodable after flushEvery Record: %v", err)
	}
	if got.Kind != Initial || got.Marking[0] != 1 {
		t.Errorf("decoded %+v", got)
	}
}

func TestOpenReaderRejectsUnknownFormat(t *testing.T) {
	if _, _, err := OpenReader(bytes.NewReader(nil), "parquet"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewFormatWriter(io.Discard, header(), "parquet", false); err == nil {
		t.Error("unknown writer format accepted")
	}
}

func TestOpenReaderForcedFormatMismatch(t *testing.T) {
	enc := encodeCol(t, header(), sampleRecords(), false)
	r, _, err := OpenReader(bytes.NewReader(enc), FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Header(); err == nil {
		t.Error("text reader accepted a columnar trace")
	}
	txt := encodeText(t, header(), sampleRecords())
	r2, _, err := OpenReader(bytes.NewReader(txt), FormatCol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Header(); err == nil {
		t.Error("col reader accepted a text trace")
	}
}

// TestWriterBatchedErrorSurfaces is the batched-path regression for the
// sticky-error contract: with flushEvery off, a downstream failure must
// surface from the flush a Final record forces (and from an explicit
// Flush), not vanish into the batch buffer.
func TestWriterBatchedErrorSurfaces(t *testing.T) {
	t.Run("final", func(t *testing.T) {
		fw := &failWriter{n: 0}
		w := NewWriter(fw, header(), false)
		rec := Record{Kind: Initial, Time: 0, Marking: petri.Marking{1, 2, 3}}
		if err := w.Record(&rec); err != nil {
			t.Fatalf("batched Record hit the writer early: %v", err)
		}
		fin := Record{Kind: Final, Time: 9, Starts: 1, Ends: 1}
		if err := w.Record(&fin); err == nil {
			t.Fatal("write error silently dropped on the Final-record flush")
		}
	})
	t.Run("flush", func(t *testing.T) {
		fw := &failWriter{n: 0}
		w := NewWriter(fw, header(), false)
		rec := Record{Kind: Start, Time: 1, Trans: 0}
		if err := w.Record(&rec); err != nil {
			t.Fatalf("batched Record hit the writer early: %v", err)
		}
		if err := w.Flush(); err == nil {
			t.Fatal("write error silently dropped on explicit Flush")
		}
	})
	t.Run("batch-boundary", func(t *testing.T) {
		// Enough records to exceed writerBatchBytes mid-run: the error
		// must surface from Record itself, and stay sticky.
		fw := &failWriter{n: 0}
		w := NewWriter(fw, header(), false)
		rec := Record{Kind: Start, Time: 1, Trans: 0, Deltas: []Delta{{Place: 0, Change: -1}}}
		var firstErr error
		for i := 0; i < 100_000 && firstErr == nil; i++ {
			firstErr = w.Record(&rec)
		}
		if firstErr == nil {
			t.Fatal("no error surfaced before 100k batched records")
		}
		if err := w.Flush(); err != firstErr {
			t.Errorf("Flush = %v, want sticky %v", err, firstErr)
		}
	})
	t.Run("col-final", func(t *testing.T) {
		fw := &failWriter{n: 0}
		w := NewColWriter(fw, header(), false)
		rec := Record{Kind: Initial, Time: 0, Marking: petri.Marking{1, 2, 3}}
		if err := w.Record(&rec); err != nil {
			t.Fatalf("batched Record hit the writer early: %v", err)
		}
		fin := Record{Kind: Final, Time: 9, Starts: 1, Ends: 1}
		if err := w.Record(&fin); err == nil {
			t.Fatal("col write error silently dropped on the Final-record flush")
		}
	})
}

// TestColReaderRetainContract documents that Next's records share
// block storage: Clone is required to retain, exactly like Observer.
func TestColReaderRetainContract(t *testing.T) {
	recs := sampleRecords()
	enc := encodeCol(t, header(), recs, false)
	r := NewColReader(bytes.NewReader(enc))
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Clone()
	for {
		if _, err := r.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
	}
	if !reflect.DeepEqual(kept.Marking, recs[0].Marking) {
		t.Error("cloned record mutated by later reads")
	}
}

// benchTrace is the decode benchmark's shared input: a realistic
// sim-shaped record stream, large enough to span multiple blocks.
func benchTrace(tb testing.TB) (Header, []Record) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1988))
	return genTrace(rng, 50_000)
}

// BenchmarkColWriter measures the columnar encode hot path, batched and
// flush-per-record, mirroring BenchmarkWriter for the text codec.
func BenchmarkColWriter(b *testing.B) {
	rec := Record{
		Kind: End, Time: 123456, Trans: 1,
		Deltas: []Delta{{Place: 0, Change: 1}, {Place: 2, Change: -3}},
	}
	for _, mode := range []struct {
		name       string
		flushEvery bool
	}{{"batched", false}, {"flushEvery", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w := NewColWriter(io.Discard, header(), mode.flushEvery)
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

// BenchmarkColReader decodes the shared benchmark trace in both
// codecs. Compare the two sub-benchmarks directly: bytes/op is the
// encoded size (col must be smaller) and ns/op the decode cost (col
// about 2x faster than text, neither allocating per record).
func BenchmarkColReader(b *testing.B) {
	h, recs := benchTrace(b)
	var textBuf, colBuf bytes.Buffer
	tw := NewWriter(&textBuf, h, false)
	cw := NewColWriter(&colBuf, h, false)
	for i := range recs {
		if err := tw.Record(&recs[i]); err != nil {
			b.Fatal(err)
		}
		if err := cw.Record(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		b.Fatal(err)
	}
	drain := func(b *testing.B, r RecordReader) {
		b.Helper()
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("decoded %d records, want %d", n, len(recs))
		}
	}
	b.Run("col", func(b *testing.B) {
		enc := colBuf.Bytes()
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ReportMetric(float64(len(enc)), "encoded_bytes")
		for i := 0; i < b.N; i++ {
			drain(b, NewColReader(bytes.NewReader(enc)))
		}
		b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("text", func(b *testing.B) {
		enc := textBuf.Bytes()
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ReportMetric(float64(len(enc)), "encoded_bytes")
		for i := 0; i < b.N; i++ {
			drain(b, NewReader(bytes.NewReader(enc)))
		}
		b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// countingWriter appends every write to buf and counts the calls.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestColWriterHandsOnBatches is the regression test for a batched
// ColWriter that held the whole trace until Final or Flush: once the
// cut blocks reach writerBatchBytes they go downstream, so bytes arrive
// before the Final record, and the stream is the same bytes, cut into
// the same blocks, as a single write at the end would carry.
func TestColWriterHandsOnBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h, recs := genTrace(rng, 3*colBlockRecords)
	var cw countingWriter
	w := NewColWriter(&cw, h, false)
	before := 0 // bytes downstream before the Final record
	for i := range recs {
		if recs[i].Kind == Final {
			before = cw.buf.Len()
		}
		if err := w.Record(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if before == 0 {
		t.Fatalf("no byte of a %d-record trace went downstream before the Final record", len(recs))
	}
	if enc := encodeCol(t, h, recs, false); !bytes.Equal(cw.buf.Bytes(), enc) {
		t.Fatalf("batched stream differs from the encoding (%d vs %d bytes)", cw.buf.Len(), len(enc))
	}
	// A hand-off cuts no block: the blocks are those the record cap cuts.
	r := NewColReader(bytes.NewReader(cw.buf.Bytes()))
	_, got := collectAll(t, r)
	recordsEqual(t, recs, got)
	if want := int64((len(recs) + colBlockRecords - 1) / colBlockRecords); r.Stats().Blocks != want {
		t.Fatalf("%d blocks, want %d", r.Stats().Blocks, want)
	}
	t.Logf("%d bytes in %d writes, %d before the Final record", cw.buf.Len(), cw.writes, before)
}
