// Package trace defines the simulation trace: "the description of the
// initial state of the system, followed by a series of state deltas
// describing how the state of the system changes over time" (Section 4.1).
//
// The P-NUT simulator deliberately knows nothing about analysis; it only
// generates a trace, and the analysis tools (stat, tracertool, the
// animator) consume traces. Because long experiment traces are unwieldy,
// the package also provides a Filter that keeps only selected places and
// transitions, and the stream interfaces let a simulator's output be
// "plugged" directly into an analyzer with no intermediate file.
//
// Traces have two interchangeable encodings behind the same
// Observer/RecordReader interfaces: the line-oriented text format below
// (Writer/Reader — the debuggable interchange) and the columnar binary
// format of col.go (ColWriter/ColReader — the compact store for
// full-trace analysis at production sweep sizes). OpenReader sniffs the
// magic bytes and returns whichever reader matches.
//
// Records are lent, not given: an Observer must not keep a record or its
// slices past the call, and a record from RecordReader.Next is valid
// only until the next call (Clone one to keep it). Both decoders and the
// Filter reuse their record storage on that contract, so a stored trace
// streams through decode, filter and analysis without allocating per
// record.
//
// The text encoding is line oriented:
//
//	pnut-trace 1
//	net <name>
//	place <id> <name>
//	trans <id> <name>
//	I <time> <m0,m1,...>             initial marking
//	S <time> <trans> <p:+d,p:-d,...> firing started (tokens removed)
//	E <time> <trans> <p:+d,...>      firing ended (tokens added)
//	F <time> <starts> <ends>         end of run
package trace

import (
	"fmt"
	"strings"

	"repro/internal/petri"
)

// Kind discriminates trace records.
type Kind byte

// Record kinds.
const (
	Initial Kind = 'I' // initial marking
	Start   Kind = 'S' // a firing started; Deltas are token removals
	End     Kind = 'E' // a firing completed; Deltas are token additions
	Final   Kind = 'F' // end of run, with start/end counters
)

func (k Kind) String() string {
	switch k {
	case Initial:
		return "initial"
	case Start:
		return "start"
	case End:
		return "end"
	case Final:
		return "final"
	}
	return fmt.Sprintf("Kind(%c)", byte(k))
}

// Delta is a change to one place's token count.
type Delta struct {
	Place  petri.PlaceID
	Change int
}

// Record is one trace entry. The Deltas slice of a Start record holds the
// (negative) input-token removals; an End record holds the (positive)
// output-token additions. Observers must not retain the record or its
// slices past the call; the simulator reuses the backing storage.
type Record struct {
	Kind    Kind
	Time    petri.Time
	Trans   petri.TransID // Start and End records
	Deltas  []Delta       // Start and End records
	Marking petri.Marking // Initial records
	Starts  int64         // Final records: firings started
	Ends    int64         // Final records: firings completed
}

// Clone returns a deep copy safe to retain.
func (r *Record) Clone() Record {
	c := *r
	c.Deltas = append([]Delta(nil), r.Deltas...)
	c.Marking = r.Marking.Clone()
	return c
}

// Header names the net and its places and transitions so that analyzers
// can be run far from the net definition (or on traces produced by other
// engines, as the paper notes for SIMSCRIPT).
type Header struct {
	Net    string
	Places []string
	Trans  []string
}

// HeaderOf extracts a Header from a net.
func HeaderOf(n *petri.Net) Header {
	h := Header{Net: n.Name}
	h.Places = make([]string, len(n.Places))
	for i, p := range n.Places {
		h.Places[i] = p.Name
	}
	h.Trans = make([]string, len(n.Trans))
	for i := range n.Trans {
		h.Trans[i] = n.Trans[i].Name
	}
	return h
}

// PlaceID resolves a place name in the header.
func (h *Header) PlaceID(name string) (petri.PlaceID, bool) {
	for i, p := range h.Places {
		if p == name {
			return petri.PlaceID(i), true
		}
	}
	return 0, false
}

// TransID resolves a transition name in the header.
func (h *Header) TransID(name string) (petri.TransID, bool) {
	for i, t := range h.Trans {
		if t == name {
			return petri.TransID(i), true
		}
	}
	return 0, false
}

// Observer consumes a stream of trace records. The simulator drives
// observers directly, which is the paper's "plug the simulator output
// into the input of analysis tools" mode.
//
// Observers are thread-confined: an Observer instance belongs to the
// single simulation run feeding it, and implementations are free to be
// unsynchronized. Parallel experiment drivers (package experiment) must
// give every concurrent replication its own Observer and only combine
// the results after the runs have finished.
type Observer interface {
	Record(rec *Record) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(rec *Record) error

// Record implements Observer.
func (f ObserverFunc) Record(rec *Record) error { return f(rec) }

// Discard is an Observer that drops every record. It is stateless, so
// unlike other observers it is safe to share between concurrent runs.
var Discard Observer = ObserverFunc(func(*Record) error { return nil })

// Tee fans a record stream out to several observers.
type Tee []Observer

// Record implements Observer, stopping at the first error.
func (t Tee) Record(rec *Record) error {
	for _, o := range t {
		if err := o.Record(rec); err != nil {
			return err
		}
	}
	return nil
}

// Collect buffers an entire trace in memory. Analysis tests use it; real
// experiments stream instead.
type Collect struct {
	Header  Header
	Records []Record
}

// NewCollect returns a collector for traces of net h.
func NewCollect(h Header) *Collect { return &Collect{Header: h} }

// Record implements Observer.
func (c *Collect) Record(rec *Record) error {
	c.Records = append(c.Records, rec.Clone())
	return nil
}

// String renders a compact textual dump (tests and debugging).
func (c *Collect) String() string {
	var b strings.Builder
	for i := range c.Records {
		r := &c.Records[i]
		switch r.Kind {
		case Initial:
			fmt.Fprintf(&b, "t=%d initial %v\n", r.Time, r.Marking)
		case Start:
			fmt.Fprintf(&b, "t=%d start %s\n", r.Time, c.Header.Trans[r.Trans])
		case End:
			fmt.Fprintf(&b, "t=%d end %s\n", r.Time, c.Header.Trans[r.Trans])
		case Final:
			fmt.Fprintf(&b, "t=%d final starts=%d ends=%d\n", r.Time, r.Starts, r.Ends)
		}
	}
	return b.String()
}
