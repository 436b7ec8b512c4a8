package reach

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/petri"
)

// fuzzBytes reads decoding choices from fuzz input; past the end it
// yields zeros, so every input decodes to a net.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

// fuzzReachNet decodes fuzz input into a small plain net and its build
// options: up to 6 places, some starting at counts of 124 or more so
// that rows widen past one byte per place mid-build, and up to 70
// transitions, so the candidate bitset's second word is reachable.
// Each transition's input and output places come from a bit mask whose
// two high bits give the first arc's weight (1 to 4); an empty input
// mask makes a source transition, and a third byte may add an
// inhibitor arc. After the transitions come one firing and one enabling
// byte per transition, each a constant delay of 0 to 3 for the timed
// build. MaxStates stays small, so unbounded nets truncate.
func fuzzReachNet(data []byte) (*petri.Net, Options) {
	d := fuzzBytes(data)
	np := 1 + d.next()%6
	nt := 1 + d.next()%70
	opt := Options{MaxStates: 1 + d.next()%150}
	b := petri.NewBuilder("fuzz")
	for p := 0; p < np; p++ {
		c := d.next()
		if c&0x80 != 0 {
			b.Place(fmt.Sprintf("p%d", p), 124+c%8)
		} else {
			b.Place(fmt.Sprintf("p%d", p), c%4)
		}
	}
	place := func(i int) string { return fmt.Sprintf("p%d", i%np) }
	tbs := make([]*petri.TransBuilder, nt)
	for i := range tbs {
		in, out, inhib := d.next(), d.next(), d.next()
		tb := b.Trans(fmt.Sprintf("t%d", i))
		tbs[i] = tb
		arcs := func(mask int, add func(string, ...int) *petri.TransBuilder) {
			w := 1 + mask>>6
			for p := 0; p < np; p++ {
				if mask&(1<<p) != 0 {
					add(place(p), w)
					w = 1
				}
			}
		}
		arcs(in, tb.In)
		arcs(out, tb.Out)
		if inhib&0x80 != 0 {
			tb.Inhib(place(inhib), 1+inhib>>4&7)
		}
	}
	for _, tb := range tbs {
		tb.FiringConst(petri.Time(d.next() % 4)).EnablingConst(petri.Time(d.next() % 4))
	}
	return b.MustBuild(), opt
}

// FuzzBuild extends the oracle property tests to arbitrary small plain
// nets: Build at shards 1 and 3, in memory and with a 64-byte spill
// budget, must reproduce the frozen serial oracle bit for bit, and
// BuildTimed, the same way, the timed oracle, node for node.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 40, 1, 0, 0x01, 0x02, 0, 0x02, 0x01, 0x85, 0x00, 0x41, 0x90})
	f.Add([]byte{3, 69, 149, 2, 1, 0, 0x01, 0x02, 0, 0x02, 0x04, 0, 0x04, 0x01, 0xa1})
	f.Add([]byte{2, 2, 100, 0x83, 1, 0x42, 0x02, 0, 0x02, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		net, opt := fuzzReachNet(data)
		opt.SpillDir = t.TempDir()
		ctx := context.Background()
		want, err := BuildSerial(ctx, net, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			for _, budget := range []int64{0, 64} {
				o := opt
				o.Shards, o.SpillBudget = shards, budget
				got, err := Build(ctx, net, o)
				if err != nil {
					t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
				}
				graphsIdentical(t, want, got)
				got.Close()
			}
		}
		want.Close()
		twant, err := BuildTimedSerial(ctx, net, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			for _, budget := range []int64{0, 64} {
				o := opt
				o.Shards, o.SpillBudget = shards, budget
				got, err := BuildTimed(ctx, net, o)
				if err != nil {
					t.Fatalf("timed shards=%d budget=%d: %v", shards, budget, err)
				}
				timedGraphsIdentical(t, twant, got)
				got.Close()
			}
		}
	})
}

// FuzzParseFormula hardens the CTL formula parser the same way the
// expr/ptl/marking fuzz targets harden theirs: arbitrary input must
// either error or produce a formula whose String form re-parses to the
// same String. Malformed formulas must never panic — the parser sits
// on the pnut-reach command line and, via the reach sweep engine, on
// the simulation server's HTTP surface.
func FuzzParseFormula(f *testing.F) {
	for _, seed := range []string{
		"AG({a == 1})",
		"EF({a + b == 2}) && !deadlock",
		"AU({a}, {b})",
		"EU({a}, AG({b}))",
		"inev({a})",
		"( {a} || {b} )",
		"AG(EF({a}))",
		"EX(AX({p}))",
		"!( deadlock )",
		"AG({Bus_free + Bus_busy == 1})",
		"EG({x} )",
		"AF({a} && {b})",
		"AG({a)",
		"EU({a})",
		"XX({a})",
		"{a +}",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fm, err := ParseFormula(src)
		if err != nil {
			return
		}
		s := fm.String()
		fm2, err := ParseFormula(s)
		if err != nil {
			t.Fatalf("String output does not re-parse: %v\ninput: %q\nprinted: %q", err, src, s)
		}
		if s2 := fm2.String(); s2 != s {
			t.Fatalf("String is not stable:\nfirst:  %q\nsecond: %q", s, s2)
		}
	})
}

// FuzzSpillBlock hardens the row store's block decoders the same way
// FuzzColReader hardens the columnar trace codec: a corrupt or
// truncated spill frame (bit rot in the temp file) must error, never
// panic, never loop forever. Each input is decoded as a block of
// untimed and of timed rows. A body the decoder accepts must be
// canonical — its row count, row lengths and rows re-encode to exactly
// its bytes — since the dedup compares rows byte for byte, and a row
// that decodes to a known state but differs from it would store a state
// twice; every row's marking must be in range and, in a timed row, its
// timers must read back through walkTimers. The seed corpus holds
// frames written by the real encoder, of untimed rows both one byte per
// place and wider and of timed rows, plus truncations, byte flips and
// an overlong varint.
func FuzzSpillBlock(f *testing.F) {
	const places = 5
	// Genuine frames: fill one block through the production encoder
	// with a 1-byte budget so it spills, then read the file back.
	frame := func(timed bool) []byte {
		s := newRowStore(places, timed, 1, f.TempDir())
		s.Keep(math.MaxInt)
		m := make(petri.Marking, places)
		for i := 0; i < blockRows; i++ {
			m[i%places] = i * 3 % 17
			if i == blockRows/2 {
				m[i%places] = 300 // a wide row
			}
			row := appendMarking(nil, m)
			if timed {
				row = append(row, byte(i%2), 3, byte(i), 1, 200, 2) // pending count, then (3, i) and (1, 328)
			}
			s.Add(row)
		}
		if s.spilled == 0 {
			f.Fatal("seed store never spilled")
		}
		valid, err := os.ReadFile(s.f.Name())
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
		return valid[:s.spilled]
	}
	valid := frame(false)
	f.Add(valid)
	for _, cut := range []int{0, 1, 2, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	for _, pos := range []int{0, 1, 2, len(valid) / 2, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{0x00})                                // zero-length body
	f.Add([]byte{0x01, 0x00})                          // body with count 0
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})        // implausible body length
	f.Add(append([]byte(nil), append(valid, 0x00)...)) // trailing byte
	// One row whose first count is 0 written overlong (0x80 0x00).
	f.Add([]byte{0x08, 0x01, 0x06, 0x80, 0x00, 0x01, 0x02, 0x03, 0x04})
	f.Add(frame(true))

	f.Fuzz(func(t *testing.T, frame []byte) {
		body, err := decodeFrame(frame)
		if err != nil {
			return
		}
		for _, timed := range []bool{false, true} {
			rows, ends, err := decodeBlock(body, places, timed, nil)
			if err != nil {
				continue
			}
			if n := len(ends); n < 1 || n > blockRows {
				t.Fatalf("row count %d out of range", n)
			}
			again := binary.AppendUvarint(nil, uint64(len(ends)))
			start := 0
			for _, e := range ends {
				again = binary.AppendUvarint(again, uint64(e-start))
				start = e
			}
			start = 0
			m := make(petri.Marking, places)
			for i, e := range ends {
				row := rows[start:e]
				start = e
				readMarking(row, m)
				for p, c := range m {
					if c < 0 || c > maxSpillCount {
						t.Fatalf("row %d place %d decoded count %d", i, p, c)
					}
				}
				enc := appendMarking(nil, m)
				if timed {
					var pend, enab []timer
					walkTimers(row, places, func(pending bool, tm timer) {
						if tm.t < 0 || tm.left < 0 {
							t.Fatalf("row %d: timer %+v out of range", i, tm)
						}
						if pending {
							pend = append(pend, tm)
						} else {
							enab = append(enab, tm)
						}
					})
					enc = binary.AppendUvarint(enc, uint64(len(pend)))
					for _, tm := range append(pend, enab...) {
						enc = binary.AppendUvarint(binary.AppendUvarint(enc, uint64(tm.t)), uint64(tm.left))
					}
				}
				if !bytes.Equal(enc, row) {
					t.Fatalf("timed=%v row %d: %x re-encodes to %x", timed, i, row, enc)
				}
				again = append(again, enc...)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("timed=%v: accepted body %x re-encodes to %x", timed, body, again)
			}
		}
	})
}
