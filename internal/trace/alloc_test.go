package trace_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestTextDecodeAllocsPerRecord: the text leg of the analysis chain,
// a stored trace decoded through a filter into the statistics tool,
// allocates per trace, not per record.
func TestTextDecodeAllocsPerRecord(t *testing.T) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	h := trace.HeaderOf(net)
	var txt bytes.Buffer
	w := trace.NewWriter(&txt, h, false)
	res, err := sim.Run(context.Background(), net, w, sim.Options{Horizon: 40_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var n int
	allocs := testing.AllocsPerRun(3, func() {
		st := stats.New(h)
		f, err := trace.NewFilter(h, st, []string{"Bus_busy", "Bus_free", "Full_I_buffers", "Empty_I_buffers"}, []string{"Issue"})
		if err != nil {
			t.Fatal(err)
		}
		n, err = trace.Copy(trace.NewReader(bytes.NewReader(txt.Bytes())), f)
		if err != nil {
			t.Fatal(err)
		}
	})
	if want := int(res.Starts + res.Ends + 2); n != want {
		t.Fatalf("decoded %d records, want %d", n, want)
	}
	if per := allocs / float64(n); per >= 0.01 {
		t.Errorf("text decode: %v allocs for %d records, %.4f per record", allocs, n, per)
	}
}
