package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// FuzzColReader hardens the columnar decoder and holds it to the frozen
// oracle of oracle_test.go: arbitrary input must decode to the same
// header, the same records and the same error text as the oracle, and
// must never panic, loop forever or produce out-of-range ids. The seed
// corpus holds valid encodings (several shapes), truncations, and byte
// flips; go fuzzing mutates from there.
func FuzzColReader(f *testing.F) {
	seed := func(events int, flushEvery bool, rngSeed int64) []byte {
		rng := rand.New(rand.NewSource(rngSeed))
		h, recs := genTrace(rng, events)
		var buf bytes.Buffer
		w := NewColWriter(&buf, h, flushEvery)
		for i := range recs {
			if err := w.Record(&recs[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := seed(50, false, 1)
	f.Add(valid)
	f.Add(seed(0, false, 2))
	f.Add(seed(200, true, 3))
	// Truncated blocks: a corrupt block must error, never panic.
	for _, cut := range []int{1, len(colMagic), len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// Flipped bytes in the header and in a block.
	for _, pos := range []int{0, len(colMagic) + 1, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte(colMagic))
	f.Add([]byte("pnut-trace 1\nnet x\n")) // text magic: must be rejected

	f.Fuzz(func(t *testing.T, data []byte) {
		wantH, want, wantErr := drainRecords(newOracleColReader(bytes.NewReader(data)))
		h, recs, err := drainRecords(NewColReader(bytes.NewReader(data)))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		if !reflect.DeepEqual(h, wantH) {
			t.Fatalf("header %+v, oracle %+v", h, wantH)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("records %+v, oracle %+v", recs, want)
		}
		if len(recs) > 1<<22 {
			t.Fatal("runaway record stream")
		}
		// Decoded records must respect the header's id spaces.
		for _, rec := range recs {
			switch rec.Kind {
			case Initial:
				if len(rec.Marking) != len(h.Places) {
					t.Fatalf("initial marking has %d places, header %d", len(rec.Marking), len(h.Places))
				}
			case Start, End:
				if int(rec.Trans) < 0 || int(rec.Trans) >= len(h.Trans) {
					t.Fatalf("transition id %d out of range", rec.Trans)
				}
				for _, d := range rec.Deltas {
					if int(d.Place) < 0 || int(d.Place) >= len(h.Places) {
						t.Fatalf("delta place %d out of range", d.Place)
					}
					if d.Change == 0 {
						t.Fatal("zero delta change decoded")
					}
				}
			case Final:
			default:
				t.Fatalf("unknown kind %q decoded", byte(rec.Kind))
			}
		}
	})
}

// FuzzColRoundTrip mutates text traces: any text trace the text reader
// accepts must survive text -> col -> text byte-identically.
func FuzzColRoundTrip(f *testing.F) {
	for _, events := range []int{0, 5, 80} {
		rng := rand.New(rand.NewSource(int64(events)))
		h, recs := genTrace(rng, events)
		var buf bytes.Buffer
		w := NewWriter(&buf, h, false)
		for i := range recs {
			if err := w.Record(&recs[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		r := NewReader(bytes.NewReader([]byte(src)))
		h, err := r.Header()
		if err != nil {
			return
		}
		var recs []Record
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // text trace invalid: nothing to round trip
			}
			recs = append(recs, rec.Clone())
		}
		// Canonical text form of what the reader understood.
		reEncode := func(recs []Record) []byte {
			var buf bytes.Buffer
			w := NewWriter(&buf, h, false)
			for i := range recs {
				if err := w.Record(&recs[i]); err != nil {
					t.Fatalf("re-encoding accepted record: %v", err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		t1 := reEncode(recs)
		var colBuf bytes.Buffer
		cw := NewColWriter(&colBuf, h, false)
		for i := range recs {
			if err := cw.Record(&recs[i]); err != nil {
				t.Fatalf("col rejected record the text reader produced: %v", err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		cr := NewColReader(bytes.NewReader(colBuf.Bytes()))
		if _, err := cr.Header(); err != nil {
			t.Fatalf("col round trip: header: %v", err)
		}
		var back []Record
		for {
			rec, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("col round trip: %v", err)
			}
			back = append(back, rec.Clone())
		}
		if t2 := reEncode(back); !bytes.Equal(t1, t2) {
			t.Fatalf("text->col->text not identity:\n%q\nvs\n%q", t1, t2)
		}
	})
}

// drainRecords decodes a whole trace, cloning each record, and stops at
// the first error.
func drainRecords(r RecordReader) (Header, []Record, error) {
	h, err := r.Header()
	if err != nil {
		return h, nil, err
	}
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return h, recs, nil
		}
		if err != nil {
			return h, recs, err
		}
		recs = append(recs, rec.Clone())
	}
}

// FuzzTextReader holds the in-place text decoder to the frozen oracle
// of oracle_test.go: for any input, the same header, the same records
// and the same error text. The seeds cover what the two split and parse
// differently if they disagree at all: Unicode white space, comments,
// signs, overflow, empty and zero deltas, and out-of-range ids. They
// also sit on both sides of what Reader's event-line decoder takes and
// what it leaves to the general parser: unsigned and doubly signed
// changes, leading zeros, 18- and 19-digit numbers, doubled spaces and
// a delta list with a tail.
func FuzzTextReader(f *testing.F) {
	for _, events := range []int{0, 5, 80} {
		rng := rand.New(rand.NewSource(int64(events)))
		h, recs := genTrace(rng, events)
		var buf bytes.Buffer
		w := NewWriter(&buf, h, false)
		for i := range recs {
			if err := w.Record(&recs[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	const head = "pnut-trace 1\nnet n\nplace 0 a\nplace 1 b\ntrans 0 t\ntrans 1 u\n"
	for _, body := range []string{
		"# c\n\nI 0 3,0\n\t\n# mid\nS 1 0 0:-1\nE 2 0 1:+1\nF 3 1 1\n",
		"I\t0\t3,0\nS 1\t0\t0:-1,1:+2\r\nF 3 1 1\n",
		"I 0 3,0\nS 1 0 0:-1 \nE\u00852 0 -\n\u3000F 3 1 1\n",
		"I\u00a00\u00a03,0\nS 1\u20030 0:-1\u2003\nF\u20033 1 1\n",
		"I 0 3,0\nS 1 0 -\nE 1 1 -\n",
		"I 0 3,0\nS 1 0 0:+0\n",
		"I 0 3,0\nS 1 0 0:-0\n",
		"I 0 3,0\nS 1 2 0:+1\n",
		"I 0 3,0\nS 1 -1 0:+1\n",
		"I 0 3,0\nE 1 0 2:+1\n",
		"I 0 3,0\nE 1 0 -1:+1\n",
		"I +0 +3,-0\nS +1 +0 +0:+1,+1:-2\nF +3 +1 -1\n",
		"I 0 3,0\nS 99999999999999999999 0 -\n",
		"I 0 3,0\nS 1 0 0:+9223372036854775808\n",
		"I 0 3,0\nF 1 9223372036854775808 0\n",
		"I 0 3,,0\n",
		"I 0 3\n",
		"I 0 3,0\nS 1 0 0:+1,\n",
		"I 0 3,0\nS 1 0 ,0:+1\n",
		"I 0 3,0\nS 1 0 0:+1:2\n",
		"I 0 3,0\nS 1 0 0+1\n",
		"I 0 3,0\nS 1 0 0:+1 # trailing\n",
		"I 0 3,0\nS\n",
		"I 0 3,0\nX 1 0 -\n",
		"I 0 3,0\nS 1 0 0:\xff1\n",
		"I 0 3\xa0,0\n",
		"I 0 3,0\nS 1 0 0:1\nE 2 0 1:++1\n",
		"I 0 3,0\nS 1 0 0:++1\n",
		"I 0 3,0\nS 007 00 000:-01,01:+002\nE 0010 01 -\n",
		"I 0 3,0\nS 123456789012345678 0 -\nE 999999999999999999 1 1:+999999999999999999\n",
		"I 0 3,0\nS 1234567890123456789 0 -\nE 1234567890123456789 1 1:-1000000000000000000\n",
		"I 0 3,0\nS 1 0000000000000000001 0000000000000000001:+0000000000000000001\n",
		"I 0 3,0\nS 1  0 0:-1\nE  2 0 -\n",
		"I 0 3,0\nS 1 0 -,\n",
	} {
		f.Add(head + body)
	}
	f.Add("")
	f.Add("pnut-trace 2\n")
	f.Add("pnut-trace 1\nplace 0 a\n")
	f.Add("pnut-trace 1\nnet n\nplace 0 a\n")
	f.Add("pnut-trace 1\nnet n\nplace 1 a\n")
	f.Add("pnut-trace 1\nnet n\nplace +0 a\ntrans x t\n")

	f.Fuzz(func(t *testing.T, src string) {
		wantH, want, wantErr := drainRecords(newOracleReader(strings.NewReader(src)))
		gotH, got, gotErr := drainRecords(NewReader(strings.NewReader(src)))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, oracle %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotH, wantH) {
			t.Fatalf("header %+v, oracle %+v", gotH, wantH)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("records %+v, oracle %+v", got, want)
		}
	})
}
