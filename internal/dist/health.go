// Per-slot worker health accounting.
//
// A dispatch round runs on a fixed set of worker slots (one concurrent
// runner invocation each). A transient failure is paid for by the
// failed span's retry budget, but a persistently dying slot — a worker
// host that is down, out of memory or misconfigured — would burn every
// retried span's budget on the same dead machine. The tracker counts
// consecutive failures per slot and quarantines a slot that keeps
// dying: the slot stops taking work, its spans are redistributed
// across the survivors, and the failure that trips the quarantine is
// charged to the slot, not the span.
package dist

// DefaultQuarantine is the consecutive-failure threshold at which a
// worker slot is quarantined when Options.Quarantine is not positive.
const DefaultQuarantine = 3

type slotHealth struct {
	consec      int // consecutive failures; any success resets
	quarantined bool
}

// healthTracker holds one round's health state for every worker slot.
// Callers serialize access (the dispatcher holds its own lock).
type healthTracker struct {
	slots     []slotHealth
	threshold int // consecutive failures before quarantine
	active    int // slots still taking work
}

func newHealthTracker(slots, quarantine int) *healthTracker {
	if quarantine <= 0 {
		quarantine = DefaultQuarantine
	}
	return &healthTracker{
		slots:     make([]slotHealth, slots),
		threshold: quarantine,
		active:    slots,
	}
}

// ok records a successful span on slot, resetting its failure streak.
func (h *healthTracker) ok(slot int) { h.slots[slot].consec = 0 }

// fail records a failed span on slot and reports whether this failure
// pushed the slot into quarantine.
func (h *healthTracker) fail(slot int) (quarantinedNow bool) {
	s := &h.slots[slot]
	s.consec++
	if !s.quarantined && s.consec >= h.threshold {
		s.quarantined = true
		h.active--
		return true
	}
	return false
}

// quarantined reports whether slot has been taken out of rotation.
func (h *healthTracker) quarantined(slot int) bool { return h.slots[slot].quarantined }

// activeSlots is the number of slots still taking work.
func (h *healthTracker) activeSlots() int { return h.active }
