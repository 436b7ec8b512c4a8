package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// trace_pipe: the paper's simulate -> trace -> analyze chain per unit.
// The processor is simulated into an in-memory columnar trace, which is
// converted to text as pnut-trace convert does; the text is decoded
// through a place/transition filter into the statistics tool
// (pnut-filter | pnut-stat); the columnar trace is decoded into a query
// state sequence and the Section 4.4 queries run on it. Both codecs
// run in both directions, and the decoders must agree record for
// record.

const tracePipeHorizon = 40000

// Filter selection for the statistics leg.
var (
	filterPlaces = []string{"Bus_busy", "Bus_free", "Full_I_buffers", "Empty_I_buffers"}
	filterTrans  = []string{"Issue"}
)

// paperQuery is one Section 4.4 query and the verdict every trace must
// give; mustHold false means either verdict is model behaviour.
type paperQuery struct {
	src      string
	mustHold bool
	q        *query.Query
}

type tracePipeBench struct {
	seed    int64
	net     *petri.Net
	header  trace.Header
	queries []paperQuery
	next    int
}

func setupTracePipe(ctx context.Context, c *config) (instance, error) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		return nil, err
	}
	b := &tracePipeBench{seed: c.seed, net: net, header: trace.HeaderOf(net)}
	for _, pq := range []paperQuery{
		// 1. The bus invariant, and that the sum settles back to 1.
		{src: "forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]", mustHold: true},
		{src: "forall s in S [ inev(s, Bus_busy(C) + Bus_free(C) == 1) ]", mustHold: true},
		// 2. Does the instruction buffer empty again after the start?
		{src: "exists s in (S - {#0}) [ Empty_I_buffers(s) == 6 ]"},
		// 3. Was a 50-cycle instruction executed?
		{src: "exists s in S [ exec_type_5(s) > 0 ]", mustHold: true},
		// 4. The bus is always freed, excluding transfers the horizon cuts.
		{src: fmt.Sprintf("forall s in {s2 in S | Bus_busy(s2) && time(s2) < %d} [ inev(s, Bus_free(C), true) ]", tracePipeHorizon-50), mustHold: true},
	} {
		q, err := query.Parse(pq.src)
		if err != nil {
			return nil, err
		}
		pq.q = q
		b.queries = append(b.queries, pq)
	}
	if err := b.unit(ctx, coldUnit(b.next)); err != nil {
		return nil, fmt.Errorf("cold unit: %w", err)
	}
	b.next++
	return b, nil
}

func (b *tracePipeBench) run(ctx context.Context, p *phase) error {
	return closedLoop(ctx, p, &b.next, b.unit)
}

func (b *tracePipeBench) close() error { return nil }

func (b *tracePipeBench) unit(ctx context.Context, u unitRun) error {
	rec := u.rec
	seed := rand.New(rand.NewSource(b.seed*15485863 + int64(u.i))).Int63()

	// Simulate into a columnar trace.
	var col bytes.Buffer
	cw := trace.NewColWriter(&col, b.header, false)
	var res sim.Result
	err := u.call("sim", "sim.Run", func(id int) error {
		obs := newTimedObserver(cw, rec != nil)
		var err error
		res, err = sim.Run(ctx, b.net, obs, sim.Options{Horizon: tracePipeHorizon, Seed: seed})
		obs.t.report(rec, id, "trace", "trace.col_encode")
		return err
	})
	if err != nil {
		return err
	}
	if err := u.call("trace", "trace.ColWriter.Flush", func(int) error { return cw.Flush() }); err != nil {
		return err
	}
	records := res.Starts + res.Ends + 2 // plus the initial and final records

	// pnut-trace convert: columnar to text.
	var txt bytes.Buffer
	var converted int
	err = u.call("trace", "trace.Copy.convert", func(id int) error {
		cr := newTimedReader(trace.NewColReader(bytes.NewReader(col.Bytes())), rec != nil, nil)
		h, err := cr.Header()
		if err != nil {
			return err
		}
		tw := trace.NewWriter(&txt, h, false)
		enc := newTimedObserver(tw, rec != nil)
		converted, err = trace.Copy(cr, enc)
		if err == nil {
			err = tw.Flush()
		}
		cr.report(rec, id, "trace.col_decode")
		enc.t.report(rec, id, "trace", "trace.text_encode")
		return err
	})
	if err != nil {
		return err
	}

	// pnut-filter | pnut-stat over the text trace.
	textSum := recordHash{x: fnvOffset}
	st := stats.New(b.header)
	err = u.call("trace", "trace.Copy.filter_stat", func(id int) error {
		tr := newTimedReader(trace.NewReader(bytes.NewReader(txt.Bytes())), rec != nil, &textSum)
		h, err := tr.Header()
		if err != nil {
			return err
		}
		sobs := newTimedObserver(st, rec != nil)
		f, err := trace.NewFilter(h, sobs, filterPlaces, filterTrans)
		if err != nil {
			return err
		}
		_, err = trace.Copy(tr, f)
		tr.report(rec, id, "trace.text_decode")
		sobs.t.report(rec, id, "stats", "stats.record")
		return err
	})
	if err != nil {
		return err
	}

	// The query state sequence from the columnar trace, and the queries.
	colSum := recordHash{x: fnvOffset}
	var seq *query.Seq
	err = u.call("query", "query.SeqFromReader", func(id int) error {
		cr := newTimedReader(trace.NewColReader(bytes.NewReader(col.Bytes())), rec != nil, &colSum)
		var err error
		seq, err = query.SeqFromReader(cr)
		cr.report(rec, id, "trace.col_decode")
		return err
	})
	if err != nil {
		return err
	}
	verdicts := make([]bool, len(b.queries))
	for k := range b.queries {
		err := u.call("query", "query.Query.Eval", func(int) error {
			r, err := b.queries[k].q.Eval(seq)
			verdicts[k] = r.Holds
			return err
		})
		if err != nil {
			return err
		}
	}
	rec.count("trace.records", float64(records))
	rec.count("trace.col_bytes", float64(col.Len()))
	rec.count("trace.text_bytes", float64(txt.Len()))

	return u.call(unitLayer, "check", func(int) error {
		return b.check(u.i, records, converted, textSum, colSum, st, verdicts)
	})
}

func (b *tracePipeBench) check(i int, records int64, converted int, textSum, colSum recordHash, st *stats.Stats, verdicts []bool) error {
	if int64(converted) != records || textSum.n != records || colSum.n != records {
		return fmt.Errorf("trace_pipe unit %d: %d records simulated, %d converted, %d text and %d col decoded",
			i, records, converted, textSum.n, colSum.n)
	}
	if textSum.x != colSum.x {
		return fmt.Errorf("trace_pipe unit %d: text and columnar decodes differ", i)
	}
	busy, err := st.Utilization("Bus_busy")
	if err != nil {
		return err
	}
	free, err := st.Utilization("Bus_free")
	if err != nil {
		return err
	}
	issue, err := st.Throughput("Issue")
	if err != nil {
		return err
	}
	if math.Abs(busy+free-1) > 1e-9 || busy <= 0 || issue <= 0 {
		return fmt.Errorf("trace_pipe unit %d: filtered statistics bus %g+%g, issue rate %g", i, busy, free, issue)
	}
	for k, pq := range b.queries {
		if pq.mustHold && !verdicts[k] {
			return fmt.Errorf("trace_pipe unit %d: query %q does not hold", i, pq.src)
		}
	}
	return nil
}

// sampleEvery is the inverse share of per-record calls the traced run
// times. Reading the clock twice costs about as much as encoding a
// record, so timing every call would mostly measure the clock.
const sampleEvery = 16

// callTimer times a random sample of a wrapper's calls and scales the
// sample up to all of them. The sample is random, not every n-th call,
// so that periodic record patterns cannot bias it.
type callTimer struct {
	on    bool
	x     uint64 // xorshift state
	calls int64
	timed int64
	ns    int64 // summed over the timed calls
}

func newCallTimer(on bool) callTimer { return callTimer{on: on, x: 0x9E3779B97F4A7C15} }

// sample counts a call and reports whether to time it.
func (c *callTimer) sample() bool {
	if !c.on {
		return false
	}
	c.calls++
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x%sampleEvery == 0
}

func (c *callTimer) add(d time.Duration) {
	c.ns += int64(d)
	c.timed++
}

// estimate is the estimated total time of all calls.
func (c *callTimer) estimate() int64 {
	if c.timed == 0 {
		return 0
	}
	return c.ns * c.calls / c.timed
}

// report attaches the estimated time to span id as a leaf of layer and
// adds it to the counters prefix+"_ns" and prefix+"_records".
func (c *callTimer) report(rec *recorder, id int, layer, prefix string) {
	ns := c.estimate()
	rec.addLeaf(id, layer, ns, c.calls)
	rec.count(prefix+"_ns", float64(ns))
	rec.count(prefix+"_records", float64(c.calls))
}

// timedObserver forwards records, timing a sample of the calls when on.
type timedObserver struct {
	next trace.Observer
	t    callTimer
}

func newTimedObserver(next trace.Observer, on bool) *timedObserver {
	return &timedObserver{next: next, t: newCallTimer(on)}
}

func (o *timedObserver) Record(rec *trace.Record) error {
	if !o.t.sample() {
		return o.next.Record(rec)
	}
	t0 := time.Now()
	err := o.next.Record(rec)
	o.t.add(time.Since(t0))
	return err
}

// timedReader forwards a trace decoder, timing a sample of the Next
// calls when on. With sum set, every record is folded into it; that
// hashing is the benchmark's own work, timed on the same sample.
type timedReader struct {
	next   trace.RecordReader
	sum    *recordHash
	t      callTimer
	hashNS int64 // hashing time of the timed calls
}

func newTimedReader(next trace.RecordReader, on bool, sum *recordHash) *timedReader {
	return &timedReader{next: next, sum: sum, t: newCallTimer(on)}
}

func (r *timedReader) Header() (trace.Header, error) { return r.next.Header() }

func (r *timedReader) Next() (trace.Record, error) {
	if !r.t.sample() {
		rec, err := r.next.Next()
		if r.sum != nil && err == nil {
			r.sum.add(&rec)
		}
		return rec, err
	}
	t0 := time.Now()
	rec, err := r.next.Next()
	t1 := time.Now()
	r.t.add(t1.Sub(t0))
	if r.sum != nil && err == nil {
		r.sum.add(&rec)
		r.hashNS += int64(time.Since(t1))
	}
	return rec, err
}

// report attaches the decode time to span id as a trace leaf and the
// hashing as a bench leaf.
func (r *timedReader) report(rec *recorder, id int, prefix string) {
	r.t.report(rec, id, "trace", prefix)
	if r.t.timed > 0 {
		rec.addLeaf(id, unitLayer, r.hashNS*r.t.calls/r.t.timed, r.t.calls)
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// recordHash is an FNV-1a digest of a record stream and its length.
type recordHash struct {
	x uint64
	n int64
}

func (h *recordHash) mix(v uint64) { h.x = (h.x ^ v) * fnvPrime }

func (h *recordHash) add(r *trace.Record) {
	h.n++
	h.mix(uint64(r.Kind))
	h.mix(uint64(r.Time))
	h.mix(uint64(r.Trans))
	h.mix(uint64(len(r.Deltas)))
	for _, d := range r.Deltas {
		h.mix(uint64(d.Place))
		h.mix(uint64(d.Change))
	}
	h.mix(uint64(len(r.Marking)))
	for _, m := range r.Marking {
		h.mix(uint64(m))
	}
	h.mix(uint64(r.Starts))
	h.mix(uint64(r.Ends))
}
