package main

// Per-layer metrics of the traced run. Every traced run prints all of
// them; a layer a workload leaves idle reads 0 there. The comment on
// each group names the end-to-end metric it should move.

// layerMetric derives one per-layer metric from a traced phase (t),
// the untraced phase run just before it (plain) and the span analysis.
type layerMetric struct {
	name, unit string
	value      func(t, plain *phase, b *breakdown) float64
}

// selfLayers are the layers whose self time per unit is reported.
var selfLayers = []string{
	"pipeline", "modelgen", "sweepcli", "experiment", "sim", "stats",
	"trace", "query", "reach", "analytic", "server", unitLayer,
}

var layerMetrics = []layerMetric{
	// sim and experiment: sweep_cache cpu_ms_per_unit.
	{"sim.ns_per_event", "ns", func(t, _ *phase, _ *breakdown) float64 {
		ns, _ := t.rec.spanTotal("sim.RunCell")
		return ratio(float64(ns), t.rec.counters["sim.events"])
	}},
	{"sim.events_per_unit", "count", func(t, _ *phase, b *breakdown) float64 {
		return ratio(t.rec.counters["sim.events"], float64(b.units))
	}},
	{"experiment.cell_overhead_us", "us", func(t, _ *phase, _ *breakdown) float64 {
		ns, _ := t.rec.spanTotal("sim.RunCell")
		return ratio(t.rec.counters["experiment.worker_ns"]-float64(ns), t.rec.counters["experiment.cells"]) / 1e3
	}},
	// pipeline (modelgen shows as self.modelgen_ms_per_unit): cpu_ms_per_unit
	// of sweep_cache and exact_analysis.
	{"pipeline.build_ms_per_unit", "ms", func(t, _ *phase, b *breakdown) float64 {
		return ratio(float64(t.rec.layerTotal("pipeline")), float64(b.units)) / 1e6
	}},
	// sweepcli: service_mix cpu_ms_per_unit (the server resolves every job).
	{"sweepcli.resolve_us", "us", func(t, _ *phase, _ *breakdown) float64 {
		ns, n := t.rec.spanTotal("sweepcli.Spec.Resolve")
		us := float64(ns) / 1e3
		for _, v := range t.rec.samples["sweepcli.resolve_us"] {
			us += v
			n++
		}
		return ratio(us, float64(n))
	}},
	// reach and analytic: exact_analysis cpu_ms_per_unit and rss_peak_mb.
	{"reach.build_ms", "ms", perUnitSpan("reach.Build")},
	{"reach.states", "count", perUnitCount("reach.states")},
	{"reach.states_per_s", "1/s", func(t, _ *phase, _ *breakdown) float64 {
		ns, _ := t.rec.spanTotal("reach.Build")
		return ratio(t.rec.counters["reach.states"], float64(ns)/1e9)
	}},
	{"reach.bytes_per_state", "B", func(t, _ *phase, _ *breakdown) float64 {
		return ratio(t.rec.counters["reach.store_bytes"], t.rec.counters["reach.states"])
	}},
	{"reach.ctl_ms", "ms", perUnitSpan("reach.Holds")},
	{"reach.timed_build_ms", "ms", perUnitSpan("reach.BuildTimed")},
	{"reach.timed_states", "count", perUnitCount("reach.timed_states")},
	{"analytic.solve_ms", "ms", func(t, _ *phase, b *breakdown) float64 {
		eval, _ := t.rec.spanTotal("analytic.Evaluate")
		timed, _ := t.rec.spanTotal("reach.BuildTimed")
		if eval == 0 {
			return 0
		}
		return ratio(float64(eval-timed), float64(b.units)) / 1e6
	}},
	// trace, stats and query: trace_pipe cpu_ms_per_unit and rss_peak_mb.
	{"trace.col_encode_ns_per_record", "ns", counterRatio("trace.col_encode_ns", "trace.col_encode_records")},
	{"trace.text_encode_ns_per_record", "ns", counterRatio("trace.text_encode_ns", "trace.text_encode_records")},
	{"trace.col_decode_ns_per_record", "ns", counterRatio("trace.col_decode_ns", "trace.col_decode_records")},
	{"trace.text_decode_ns_per_record", "ns", counterRatio("trace.text_decode_ns", "trace.text_decode_records")},
	{"trace.col_bytes_per_record", "B", counterRatio("trace.col_bytes", "trace.records")},
	{"trace.text_bytes_per_record", "B", counterRatio("trace.text_bytes", "trace.records")},
	{"stats.ns_per_record", "ns", counterRatio("stats.record_ns", "stats.record_records")},
	{"query.seq_ms", "ms", perUnitSpan("query.SeqFromReader")},
	{"query.eval_ms", "ms", perUnitSpan("query.Query.Eval")},
	// server and cache: service_mix cpu_ms_per_unit and wall.unit_ms_p90.
	{"server.queue_wait_ms_p50", "ms", sampleMedian("server.queue_wait_ms")},
	{"server.run_ms_p50", "ms", sampleMedian("server.run_ms")},
	{"server.runner_busy_frac", "frac", func(t, _ *phase, _ *breakdown) float64 {
		return ratio(t.rec.counters["server.run_ns"], float64(t.elapsed))
	}},
	{"server.overhead_ms_p50", "ms", sampleMedian("server.overhead_ms")},
	{"server.hit_ms_p50", "ms", sampleMedian("server.hit_ms")},
	{"cache.hit_frac", "frac", counterRatio("cache.hits", "server.jobs")},
	{"cache.join_frac", "frac", counterRatio("cache.joins", "server.jobs")},
	{"server.rejected_frac", "frac", counterRatio("server.rejected", "server.jobs")},
	// The Go runtime, from the untraced half: rss_peak_mb and cpu_ms_per_unit.
	{"go.alloc_mb_per_unit", "MB", func(_, plain *phase, _ *breakdown) float64 {
		return ratio(plain.allocMB, float64(plain.attempted))
	}},
	{"go.gc_cpu_frac", "frac", func(_, plain *phase, _ *breakdown) float64 { return plain.gcCPUFrac }},
	// Wall-clock figures of the untraced half, for reading the others:
	// they vary with the host's steal time, so they carry no bound.
	// Open-loop latencies are timed from each job's due time.
	{"wall.units_per_s", "1/s", func(_, plain *phase, _ *breakdown) float64 {
		return ratio(float64(plain.attempted), plain.elapsed.Seconds())
	}},
	{"wall.unit_ms_p50", "ms", func(_, plain *phase, _ *breakdown) float64 { return median(plain.unitMS) }},
	{"wall.unit_ms_p90", "ms", func(_, plain *phase, _ *breakdown) float64 { return quantile(plain.unitMS, 0.9) }},
	{"wall.cpu_per_wall", "frac", func(_, plain *phase, _ *breakdown) float64 {
		return ratio(plain.cpuS, plain.elapsed.Seconds())
	}},
	{"host.steal_frac", "frac", func(_, plain *phase, _ *breakdown) float64 { return plain.stealFrac }},
	// The benchmark itself. Tracing overhead compares CPU time per unit,
	// which the host's steal leaves out.
	{"bench.tracing_overhead_frac", "frac", func(t, plain *phase, _ *breakdown) float64 {
		return ratio(cpuMSPerUnit(t), cpuMSPerUnit(plain)) - 1
	}},
	{"bench.span_coverage_frac", "frac", func(_, _ *phase, b *breakdown) float64 { return b.coverage }},
	{"bench.span_coverage_min_frac", "frac", func(_, _ *phase, b *breakdown) float64 { return b.minCoverage }},
	{"bench.traced_units", "count", func(_, _ *phase, b *breakdown) float64 { return float64(b.units) }},
	{"bench.generator_late_ms_p90", "ms", func(t, _ *phase, _ *breakdown) float64 {
		return quantile(t.rec.samples["bench.generator_late_ms"], 0.9)
	}},
}

func init() {
	for _, l := range selfLayers {
		layer := l
		layerMetrics = append(layerMetrics, layerMetric{"self." + layer + "_ms_per_unit", "ms",
			func(_, _ *phase, b *breakdown) float64 {
				return ratio(float64(b.selfNS[layer]), float64(b.units)) / 1e6
			}})
	}
}

// perLayer computes every per-layer metric.
func perLayer(t, plain *phase) map[string]metric {
	b := t.rec.analyze()
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{m.value(t, plain, &b), m.unit}
	}
	return out
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perUnitSpan(name string) func(t, _ *phase, b *breakdown) float64 {
	return func(t, _ *phase, b *breakdown) float64 {
		ns, _ := t.rec.spanTotal(name)
		return ratio(float64(ns), float64(b.units)) / 1e6
	}
}

func perUnitCount(counter string) func(t, _ *phase, b *breakdown) float64 {
	return func(t, _ *phase, b *breakdown) float64 {
		return ratio(t.rec.counters[counter], float64(b.units))
	}
}

func counterRatio(num, den string) func(t, _ *phase, _ *breakdown) float64 {
	return func(t, _ *phase, _ *breakdown) float64 {
		return ratio(t.rec.counters[num], t.rec.counters[den])
	}
}

func sampleMedian(name string) func(t, _ *phase, _ *breakdown) float64 {
	return func(t, _ *phase, _ *breakdown) float64 { return median(t.rec.samples[name]) }
}
