package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/trace"
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

// fuzzDelay maps a 3-bit choice to a firing or enabling time: none,
// constant zero or nonzero, or uniform with a zero or nonzero low bound.
// Choice 0 maps to zeroDefault.
func fuzzDelay(k int, zeroDefault petri.Delay) petri.Delay {
	switch k & 7 {
	case 1:
		return nil
	case 2:
		return petri.Constant(0)
	case 3:
		return petri.Uniform{Lo: 0, Hi: 2}
	case 4:
		return petri.Uniform{Lo: 1, Hi: 3}
	case 5:
		return petri.Constant(2)
	case 6:
		return petri.Constant(1)
	case 7:
		return petri.Uniform{Lo: 0, Hi: 5}
	}
	return zeroDefault
}

var fuzzFreqs = [8]float64{1, 0, 0.5, 2, 3, 0.25, 1, 10}

// fuzzNet decodes fuzz input into a small net: up to 6 places and up
// to 70 transitions (so the ripe bitset's second word is reachable),
// with arc weights, inhibitor arcs, server caps, constant and uniform
// firing and enabling times (zero and nonzero), frequencies including
// 0, and optional irand predicates and actions over one variable. It
// also returns the run options. Bytes past the input's end read as 0,
// which decodes to a ring transition firing in one time unit.
func fuzzNet(data []byte) (*petri.Net, sim.Options) {
	d := fuzzBytes(data)
	np := 1 + d.next()%6
	nt := 1 + d.next()%70
	opt := sim.Options{
		Seed:               int64(d.next()),
		Horizon:            petri.Time(1 + d.next()%200),
		MaxStepsPerInstant: 500,
	}
	b := petri.NewBuilder("fuzz").Var("x", 0)
	for p := 0; p < np; p++ {
		b.Place(fmt.Sprintf("p%d", p), d.next()%4)
	}
	place := func(i int) string { return fmt.Sprintf("p%d", i%np) }
	for i := 0; i < nt; i++ {
		in, out, timing, misc, inhib := d.next(), d.next(), d.next(), d.next(), d.next()
		tb := b.Trans(fmt.Sprintf("t%d", i))
		arcs := func(mask, def int, add func(string, ...int) *petri.TransBuilder) {
			w := 1 + mask>>6&1
			if mask&(1<<np-1) == 0 {
				add(place(def), w)
				return
			}
			for p := 0; p < np; p++ {
				if mask&(1<<p) != 0 {
					add(place(p), w)
					w = 1
				}
			}
		}
		arcs(in, i, tb.In)
		arcs(out, i+1, tb.Out)
		if in&0x80 != 0 {
			tb.Inhib(place(inhib), 1+inhib>>7)
		}
		if fd := fuzzDelay(timing, petri.Constant(1)); fd != nil {
			tb.Firing(fd)
		}
		if ed := fuzzDelay(timing>>3, nil); ed != nil {
			tb.Enabling(ed)
		}
		if f := fuzzFreqs[misc&7]; f != 1 {
			tb.Freq(f)
		}
		tb.Servers((misc >> 3 & 3) % 3) // 0 (unlimited), 1 or 2
		switch misc >> 5 {
		case 1:
			tb.Pred("irand(0, 1) == 1")
		case 2:
			tb.Action("x = irand(0, 3)")
		case 3:
			tb.Pred("x > 0")
		case 4:
			tb.Pred("irand(0, 2) > x")
			tb.Action("x = x + 1")
		case 5:
			tb.Action("x = x - 1")
		}
	}
	return b.MustBuild(), opt
}

// FuzzScheduler extends TestSchedulerMatchesOracle to arbitrary small
// nets: the indexed engine and the frozen linear-scan oracle must
// produce the same text-trace bytes, statistics snapshot, run summary
// and error text.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 1, 50, 1, 0, 0x03, 0x04, 0x06, 0x20, 0, 0x04, 0x01, 0x01, 0x41, 0, 0x03, 0x03, 0x0a, 0x08, 1})
	f.Add([]byte{5, 69, 9, 120, 3, 1, 0, 2, 0, 0x81, 0x42, 0x12, 0x13, 2, 0x03, 0x05, 0x21, 0x61, 0x84})
	f.Add([]byte{3, 67, 4, 90, 2, 2, 1, 1, 0x01, 0x02, 0x1a, 0x2b, 0, 0x02, 0x04, 0x30, 0x9c, 0, 0x04, 0x08, 0x02, 0x3a, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		net, opt := fuzzNet(data)
		eng := sim.NewEngine(net)
		gotTrace, gotStats, gotRes, gotErr := runTrace(t, net, func(obs trace.Observer, o sim.Options) (sim.Result, error) {
			return eng.Run(context.Background(), obs, o)
		}, opt)
		wantTrace, wantStats, wantRes, wantErr := runTrace(t, net, sim.NewOracle(net).Run, opt)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("errors differ: indexed %v, oracle %v", gotErr, wantErr)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("traces differ\n--- indexed (%d bytes)\n%s\n--- oracle (%d bytes)\n%s",
				len(gotTrace), firstDiffContext(gotTrace, wantTrace), len(wantTrace), firstDiffContext(wantTrace, gotTrace))
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatal("statistics snapshots differ")
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("run summaries differ:\nindexed %+v\noracle  %+v", gotRes, wantRes)
		}
	})
}
