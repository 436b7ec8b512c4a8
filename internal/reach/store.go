// The marking store is the compact state backbone of the reachability
// graph: an append-only log of marking rows indexed by node id. A row
// is a marking encoded by appendMarking, one uvarint per place, so a
// marking whose counts are all below 128 is one byte per place. The
// frontier builds its candidates in the same form, so a new state is
// stored by appending its candidate bytes verbatim, and a committed
// state is compared to a candidate byte for byte. A timed state's row
// is its marking's row with the timers appended (timed.go); MemStore
// stores it like any other row, and decoding reads the marking prefix.
//
// Two implementations exist behind the StateStore interface: MemStore
// (below) keeps every row in one in-memory buffer; SpillStore
// (spill.go) seals rows into self-contained framed blocks that spill
// to a temp file past a byte budget, so MaxStates can exceed RAM.
//
// Concurrency: Add must be single-threaded and must not overlap any
// read; reads (Row, At, Span) are safe concurrently with each other.
// The parallel builder respects this by construction — rows are only
// appended in the sequential commit phase of a round, and only read
// during the parallel expand/dedup phases.
package reach

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/petri"
)

// StateStore is the marking container behind a reachability graph.
// Rows are appended in node-id order and ids are dense from 0.
// Implementations must make reads safe concurrently with each other;
// Add is always called single-threaded with no read in flight.
type StateStore interface {
	// Add appends row, a marking encoded by appendMarking, verbatim and
	// returns its id. row is not retained.
	Add(row []byte) int
	// Len returns the number of stored markings.
	Len() int
	// Bytes returns the encoded size in bytes, in memory plus on disk.
	Bytes() int
	// Row returns the row of id. It is either a view into the store,
	// valid until the next Add, or a copy appended to dst[:0]; callers
	// must not modify it.
	Row(id int, dst []byte) []byte
	// At decodes the marking with the given id into dst (grown if
	// needed) and returns it.
	At(id int, dst petri.Marking) petri.Marking
	// Span calls fn for each id in [lo, hi) in order, with the decoded
	// marking in a buffer that is reused between calls and the row it
	// was decoded from — fn must not retain or modify either.
	// Returning false stops the iteration.
	Span(lo, hi int, fn func(id int, m petri.Marking, row []byte) bool)
	// Err returns the first I/O or decode error the store hit; once
	// non-nil the store's contents must not be trusted. The builders
	// check it at every window barrier.
	Err() error
	// Close releases any resources (temp files) the store holds. It is
	// idempotent; reads after Close are undefined.
	Close() error
}

// MemStore is the in-memory StateStore: every row, back to back, in
// one buffer. While every row is exactly places bytes wide (every
// count below 128) row id starts at id*places; the first wider row
// builds ends, the end offset of every row.
type MemStore struct {
	places int
	buf    []byte
	n      int
	ends   []int // ends[id]: offset past row id; nil while rows are stride-width
}

// NewMemStore returns an empty in-memory store for markings over the
// given number of places.
func NewMemStore(places int) *MemStore {
	return &MemStore{places: places}
}

// Len returns the number of stored markings.
func (s *MemStore) Len() int { return s.n }

// Bytes returns the encoded size in bytes.
func (s *MemStore) Bytes() int { return len(s.buf) }

// Err always returns nil: the in-memory store cannot fail.
func (s *MemStore) Err() error { return nil }

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// Add appends row verbatim and returns its id.
func (s *MemStore) Add(row []byte) int {
	if s.ends == nil && len(row) != s.places {
		s.ends = make([]int, s.n, 2*s.n+1)
		for i := range s.ends {
			s.ends[i] = (i + 1) * s.places
		}
	}
	s.buf = append(reserve(s.buf, len(row)), row...)
	if s.ends != nil {
		s.ends = append(reserve(s.ends, 1), len(s.buf))
	}
	s.n++
	return s.n - 1
}

// Row returns a view of row id; dst is unused.
func (s *MemStore) Row(id int, _ []byte) []byte {
	if s.ends == nil {
		return s.buf[id*s.places : (id+1)*s.places]
	}
	start := 0
	if id > 0 {
		start = s.ends[id-1]
	}
	return s.buf[start:s.ends[id]]
}

// At decodes the marking with the given id into dst (grown if needed)
// and returns it.
func (s *MemStore) At(id int, dst petri.Marking) petri.Marking {
	dst = slices.Grow(dst[:0], s.places)[:s.places]
	readMarking(s.Row(id, nil), dst)
	return dst
}

// Span calls fn for each id in [lo, hi) in order, with a decode buffer
// that is reused between calls — fn must not retain m or row.
// Returning false stops the iteration.
func (s *MemStore) Span(lo, hi int, fn func(id int, m petri.Marking, row []byte) bool) {
	if lo >= hi {
		return
	}
	m := make(petri.Marking, s.places)
	for id := lo; id < hi; id++ {
		row := s.Row(id, nil)
		readMarking(row, m)
		if !fn(id, m, row) {
			return
		}
	}
}

// reserve returns s with room for n more elements, at least doubling
// its capacity when it must grow: append grows a large slice by about
// 1.25x, which copies a build's edge and row arrays several times over.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// appendMarking appends m as a row, each count as a uvarint. The form
// is injective, so equal bytes mean equal markings.
func appendMarking(b []byte, m petri.Marking) []byte {
	for _, c := range m {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// readMarking decodes row, a marking encoded by appendMarking, into
// dst. A row of one byte per place holds every count in a single byte
// and is read without varint decoding.
func readMarking(row []byte, dst petri.Marking) {
	if len(row) == len(dst) {
		for i, b := range row {
			dst[i] = int(b)
		}
		return
	}
	off := 0
	for i := range dst {
		v, n := binary.Uvarint(row[off:])
		dst[i] = int(v)
		off += n
	}
}

// hashRow is the dedup hash of a candidate row, untimed or timed: a fixed-key
// 64-bit hash that reads the row eight bytes at a time, with a final
// avalanche so that both the low bits (which pick the owning shard) and
// the high bits (which pick a table slot) depend on every byte. Node
// numbering never depends on the hash; it only spreads candidates over
// shards and slots.
func hashRow(b []byte) uint64 {
	h := rowSeed ^ uint64(len(b))*rowMul2
	for ; len(b) >= 8; b = b[8:] {
		h = rowMix(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = rowMix(h, w)
	}
	h ^= h >> 33
	h *= rowMul1
	h ^= h >> 29
	h *= rowMul2
	return h ^ h>>32
}

// rowMix folds one 8-byte word of a row into h.
func rowMix(h, w uint64) uint64 {
	w *= rowMul1
	w = bits.RotateLeft64(w, 31)
	w *= rowMul2
	h ^= w
	return bits.RotateLeft64(h, 27)*5 + rowSeed
}

const (
	rowSeed = 0x9e3779b97f4a7c15
	rowMul1 = 0xbf58476d1ce4e5b9
	rowMul2 = 0x94d049bb133111eb
)
