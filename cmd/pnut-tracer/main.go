// pnut-tracer is Tracertool (Section 4.4) as a command: a software logic
// state analyzer over a trace read from stdin, plus the verification
// front end.
//
// Probes are chosen with -place, -trans and -func (all repeatable); the
// window and resolution with -from/-to/-width. Markers are placed at
// absolute times (-mark O=120) or at trigger conditions
// (-trigger X=storing>0). Verification queries run with -check:
//
//	pnut-sim -net pipeline.pn | pnut-tracer \
//	    -place Bus_busy -place pre_fetching -place fetching -place storing \
//	    -func 'sum_exec=exec_type_1+exec_type_2+exec_type_3+exec_type_4+exec_type_5' \
//	    -trigger 'O=Bus_busy > 0' -trigger 'X=storing > 0' \
//	    -check 'forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/tracer"
)

type repeated []string

func (r *repeated) String() string { return strings.Join(*r, ", ") }

func (r *repeated) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var places, transitions, funcs, marks, triggers, checks repeated
	flag.Var(&places, "place", "place to probe (repeatable)")
	flag.Var(&transitions, "trans", "transition to probe (repeatable)")
	flag.Var(&funcs, "func", "user-defined function probe, label=expr (repeatable)")
	flag.Var(&marks, "mark", "marker at a time, name=ticks (repeatable)")
	flag.Var(&triggers, "trigger", "marker at first state satisfying expr, name=expr (repeatable)")
	flag.Var(&checks, "check", "verification query (repeatable)")
	from := flag.Int64("from", 0, "window start")
	to := flag.Int64("to", 0, "window end (0 = end of run)")
	width := flag.Int("width", 96, "plot width in columns")
	unicode := flag.Bool("unicode", false, "use block-character waveforms")
	figure7 := flag.Bool("figure7", false, "use the paper's Figure 7 probe set (pipeline traces)")
	vcd := flag.String("vcd", "", "also write the probes as a VCD waveform file")
	format := flag.String("trace-format", trace.FormatAuto, "input trace encoding: auto (sniff), text or col")
	flag.Parse()

	r, _, err := trace.OpenReader(os.Stdin, *format)
	if err != nil {
		fatal(err)
	}
	seq, err := query.SeqFromReader(r)
	if err != nil {
		fatal(err)
	}
	var tr *tracer.Tracer
	if *figure7 {
		tr, err = tracer.Figure7(seq)
		if err != nil {
			fatal(err)
		}
	} else {
		tr = tracer.New(seq)
	}
	for _, p := range places {
		if err := tr.AddPlace(p); err != nil {
			fatal(err)
		}
	}
	for _, t := range transitions {
		if err := tr.AddTransition(t); err != nil {
			fatal(err)
		}
	}
	for _, f := range funcs {
		label, src, ok := strings.Cut(f, "=")
		if !ok {
			fatal(fmt.Errorf("-func wants label=expr, got %q", f))
		}
		if err := tr.AddFunc(label, src); err != nil {
			fatal(err)
		}
	}
	for _, m := range marks {
		name, at, ok := strings.Cut(m, "=")
		if !ok {
			fatal(fmt.Errorf("-mark wants name=ticks, got %q", m))
		}
		tm, err := strconv.ParseInt(at, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("-mark %q: %v", m, err))
		}
		tr.MarkAt(name, tm)
	}
	for _, tg := range triggers {
		name, src, ok := strings.Cut(tg, "=")
		if !ok {
			fatal(fmt.Errorf("-trigger wants name=expr, got %q", tg))
		}
		if _, err := tr.MarkWhen(name, src, *from); err != nil {
			fatal(err)
		}
	}
	if len(tr.Signals()) > 0 {
		fmt.Print(tr.Render(tracer.RenderOptions{
			From: *from, To: *to, Width: *width, Unicode: *unicode,
		}))
	}
	if *vcd != "" {
		f, err := os.Create(*vcd)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteVCD(f, ""); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pnut-tracer: wrote %s\n", *vcd)
	}
	failed := false
	for _, c := range checks {
		res, err := tr.Verify(c)
		if err != nil {
			fatal(err)
		}
		verdict := "HOLDS"
		if !res.Holds {
			verdict = "FAILS"
			failed = true
		}
		fmt.Printf("%s  %s", verdict, c)
		if res.Witness >= 0 {
			fmt.Printf("   (witness state #%d at t=%d)", res.Witness, seq.Time(res.Witness))
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-tracer:", err)
	os.Exit(1)
}
