// The marking store is the compact state backbone of the reachability
// graph: an append-only, delta-encoded log of markings indexed by node
// id. A million-state graph used to hold one boxed []int per node plus
// a map keyed by Marking.Key() strings; the store keeps the same
// information as varint bytes, borrowing the keyframe+delta block
// layout of the columnar trace codec (internal/trace/col.go): BFS
// neighbours differ in a handful of places, so consecutive markings
// delta-encode to a few bytes each.
//
// Two implementations exist behind the StateStore interface: MemStore
// (below) keeps every block in one in-memory buffer; SpillStore
// (spill.go) seals markings into self-contained framed blocks that
// spill to a temp file past a byte budget, so MaxStates can exceed RAM.
//
// Concurrency: Add must be single-threaded and must not overlap any
// read; reads (At, Span) are safe concurrently with each other.
// The parallel builder respects this by construction — markings are
// only appended in the sequential commit phase of a round, and only
// read during the parallel expand/dedup phases.
package reach

import (
	"encoding/binary"

	"repro/internal/petri"
)

// StateStore is the marking container behind a reachability graph.
// Markings are appended in node-id order and ids are dense from 0.
// Implementations must make reads safe concurrently with each other;
// Add is always called single-threaded with no read in flight.
type StateStore interface {
	// Add appends m (which is not retained) and returns its id.
	Add(m petri.Marking) int
	// Len returns the number of stored markings.
	Len() int
	// Bytes returns the encoded size in bytes, in memory plus on disk.
	Bytes() int
	// At decodes the marking with the given id into dst (grown if
	// needed) and returns it.
	At(id int, dst petri.Marking) petri.Marking
	// Span calls fn for each id in [lo, hi) in order, with a decode
	// buffer that is reused between calls — fn must not retain m.
	// Returning false stops the iteration.
	Span(lo, hi int, fn func(id int, m petri.Marking) bool)
	// Err returns the first I/O or decode error the store hit; once
	// non-nil the store's contents must not be trusted. The builders
	// check it at every level barrier.
	Err() error
	// Close releases any resources (temp files) the store holds. It is
	// idempotent; reads after Close are undefined.
	Close() error
}

// storeBlock is the keyframe interval of MemStore: worst-case random
// access decodes storeBlock entries.
const storeBlock = 32

// MemStore is the in-memory StateStore: one contiguous buffer of
// varint-encoded markings. Every storeBlock-th entry is a keyframe
// (each place count as a uvarint); the entries after it encode
// zigzag-varint deltas against the previous entry. blocks[] records
// each keyframe's byte offset, so random access decodes at most one
// block.
type MemStore struct {
	places int
	buf    []byte
	blocks []int // byte offset of each block's keyframe
	n      int
	prev   petri.Marking // last appended marking (delta base for Add)
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

// Add appends m (which is not retained) and returns its id.
func (s *MemStore) Add(m petri.Marking) int {
	id := s.n
	if id%storeBlock == 0 {
		s.blocks = append(s.blocks, len(s.buf))
		s.buf = appendMarking(s.buf, m)
	} else {
		for i, c := range m {
			s.buf = binary.AppendVarint(s.buf, int64(c-s.prev[i]))
		}
	}
	s.prev = append(s.prev[:0], m...)
	s.n = id + 1
	return id
}

// decodeInto decodes the entry at byte offset off into dst: a keyframe
// if key, otherwise deltas applied to dst's current contents. It
// returns the offset past the entry.
func (s *MemStore) decodeInto(off int, dst petri.Marking, key bool) int {
	if key {
		return off + readMarking(s.buf[off:], dst[:s.places])
	}
	for i := 0; i < s.places; i++ {
		d, n := binary.Varint(s.buf[off:])
		dst[i] += int(d)
		off += n
	}
	return off
}

// At decodes the marking with the given id into dst (grown if needed)
// and returns it.
func (s *MemStore) At(id int, dst petri.Marking) petri.Marking {
	if cap(dst) < s.places {
		dst = make(petri.Marking, s.places)
	}
	dst = dst[:s.places]
	off := s.blocks[id/storeBlock]
	off = s.decodeInto(off, dst, true)
	for k := (id/storeBlock)*storeBlock + 1; k <= id; k++ {
		off = s.decodeInto(off, dst, false)
	}
	return dst
}

// Span calls fn for each id in [lo, hi) in order, with a decode buffer
// that is reused between calls — fn must not retain m. Returning false
// stops the iteration.
func (s *MemStore) Span(lo, hi int, fn func(id int, m petri.Marking) bool) {
	if lo >= hi {
		return
	}
	cur := make(petri.Marking, s.places)
	block := lo / storeBlock
	off := s.decodeInto(s.blocks[block], cur, true)
	for k := block*storeBlock + 1; k <= lo; k++ {
		off = s.decodeInto(off, cur, false)
	}
	for id := lo; ; {
		if !fn(id, cur) {
			return
		}
		if id++; id >= hi {
			return
		}
		if id%storeBlock == 0 {
			off = s.decodeInto(s.blocks[id/storeBlock], cur, true)
		} else {
			off = s.decodeInto(off, cur, false)
		}
	}
}

// appendMarking appends m in the keyframe form, each count as a
// uvarint. The frontier encodes its candidates this way too: the form
// is injective, so equal bytes mean equal markings.
func appendMarking(b []byte, m petri.Marking) []byte {
	for _, c := range m {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// readMarking decodes a keyframe-form marking from b into dst and
// returns the number of bytes read.
func readMarking(b []byte, dst petri.Marking) int {
	off := 0
	for i := range dst {
		v, n := binary.Uvarint(b[off:])
		dst[i] = int(v)
		off += n
	}
	return off
}

// hashMarking is the binary marking hash the sharded dedup is keyed by:
// FNV-1a over the keyframe form of the counts, so it equals hashBytes
// of appendMarking(nil, m) without encoding. The low bits pick the
// owning shard.
func hashMarking(m petri.Marking) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range m {
		h = fnvVarint(h, uint64(c))
	}
	return h
}

// hashBytes is FNV-1a over b: the hash of an encoded candidate.
func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// fnvVarint folds the varint encoding of v into the FNV-1a hash h.
func fnvVarint(h, v uint64) uint64 {
	for v >= 0x80 {
		h ^= v&0x7f | 0x80
		h *= fnvPrime64
		v >>= 7
	}
	h ^= v
	h *= fnvPrime64
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)
