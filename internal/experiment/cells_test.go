package experiment

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// cellStream runs cells [lo, hi) of the cache-processor sweep of
// gridOptions and returns them with the meta they stream under.
func cellStream(tb testing.TB, reps, lo, hi int) (CellMeta, []CellRecord) {
	tb.Helper()
	opt := gridOptions(reps, 0)
	recs, err := RunCellsContext(context.Background(), opt, lo, hi, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return MetaOf(opt, "pipeline_cached"), recs
}

// writeCells encodes meta and recs as one cell-record stream.
func writeCells(tb testing.TB, buf *bytes.Buffer, meta CellMeta, recs []CellRecord) {
	tb.Helper()
	cw, err := NewCellWriter(buf, meta)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range recs {
		if err := cw.Write(rec); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCellCodec measures the cell-record codec that carries a
// distributed sweep's cells from worker to coordinator and journal:
// each iteration writes one cache-processor sweep's 16 cells through
// CellWriter and reads them back through CellReader. It reports the
// round trip per cell and the encoded bytes per cell.
func BenchmarkCellCodec(b *testing.B) {
	meta, recs := cellStream(b, 4, 0, 16)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		writeCells(b, &buf, meta, recs)
		cr, err := NewCellReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err := cr.Read(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if n != len(recs) {
			b.Fatalf("read back %d of %d cells", n, len(recs))
		}
	}
	b.StopTimer()
	cells := float64(b.N * len(recs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
	b.ReportMetric(float64(buf.Len())/float64(len(recs)), "B/cell")
}

// FuzzCellReader feeds arbitrary bytes to the cell-record decoder,
// which reads journals from disk and worker streams from pipes. It must
// never panic, and every record it accepts must re-encode to a line
// that decodes and encodes back to the same bytes: what a coordinator
// journals from a decoded record is then exactly what it reads back.
func FuzzCellReader(f *testing.F) {
	meta, recs := cellStream(f, 1, 0, 2)
	var buf bytes.Buffer
	writeCells(f, &buf, meta, recs)
	stream := buf.Bytes()
	for _, n := range []int{len(stream), len(stream) - 1, len(stream) / 2, bytes.IndexByte(stream, '\n') + 1, 1, 0} {
		f.Add(stream[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewCellReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			rec, err := cr.Read()
			if err != nil {
				return
			}
			line, err := EncodeCell(rec)
			if err != nil {
				t.Fatalf("decoded cell %d does not re-encode: %v", rec.Cell, err)
			}
			back, err := DecodeCell(line)
			if err != nil {
				t.Fatalf("re-encoded cell %d does not decode: %v\n%s", rec.Cell, err, line)
			}
			again, err := EncodeCell(back)
			if err != nil {
				t.Fatalf("cell %d: second encode: %v", rec.Cell, err)
			}
			if !bytes.Equal(line, again) {
				t.Fatalf("cell %d does not round-trip:\n%s\n%s", rec.Cell, line, again)
			}
		}
	})
}
