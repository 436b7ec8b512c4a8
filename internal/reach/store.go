// The marking store is the compact state backbone of the reachability
// graph: an append-only log of rows indexed by node id. A row is a
// marking encoded by appendMarking, one uvarint per place, so a marking
// whose counts are all below 128 is one byte per place; a timed state's
// row is its marking's row with its timers appended (timed.go). The
// frontier builds its candidates in the same form, so a new state is
// stored by appending its candidate bytes verbatim, and a committed
// state is compared to a candidate byte for byte.
//
// Rows sit back to back in one buffer. While every row is exactly
// places bytes wide (every count below 128) row id is found by stride;
// the first wider row builds ends, the end offset of every row. With a
// spill budget the store is the disk-backed state table of Stern and
// Dill ("Using magnetic disk instead of main memory in the Murφ
// verifier", CAV 1998): once the resident rows pass the budget, the
// oldest whole blocks of blockRows rows move to a temp file, each
// carrying its row lengths, so a timed row frames like any other. Rows
// at or above the keep mark, the newest level's first id, never spill,
// so the dedup reads them as views.
//
// Concurrency: Add and Keep must be single-threaded and must not
// overlap any read; reads (Row, At, Span) are safe concurrently with
// each other. The parallel builder respects this by construction: rows
// are only appended in the sequential commit phase of a round, and only
// read during the parallel expand/dedup phases.
package reach

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"

	"repro/internal/petri"
)

const (
	// blockRows is the number of rows per spilled block. Reading a
	// spilled row reads its whole block.
	blockRows = 64
	// maxSpillBody bounds a plausible block body; larger length
	// prefixes are rejected as corruption before any allocation.
	maxSpillBody = 1 << 26
	// maxSpillCount bounds a plausible token count; decoded counts
	// outside [0, maxSpillCount] are rejected as corruption.
	maxSpillCount = 1 << 40
)

// rowStore holds a graph's rows: ids [base, n) resident in buf, and
// every lower id in a block of the temp file.
type rowStore struct {
	places int
	timed  bool   // rows carry timers after the marking
	buf    []byte // the resident rows back to back
	ends   []int  // ends[i]: offset in buf past row base+i; nil while rows are stride-width
	base   int    // the first resident id, a multiple of blockRows
	n      int

	budget  int64  // resident bytes past which old blocks spill (0 = never)
	dir     string // temp file directory ("" = the system temp dir)
	keep    int    // the first id that must stay resident
	f       *os.File
	blocks  []int64 // blocks[k]: file offset of the frame of rows k*blockRows, ...
	spilled int64   // bytes written to the temp file
	wbuf    []byte  // spill's frame buffer

	pool  sync.Pool // *blockBuf, the read scratch of spilled blocks
	errMu sync.Mutex
	err   error
}

// blockBuf is one reader's scratch for a spilled block.
type blockBuf struct {
	frame []byte
	ends  []int
}

// newRowStore returns an empty store for rows over the given number of
// places. A positive budget lets the rows below the keep mark spill to
// a temp file in dir once the resident rows exceed budget bytes.
func newRowStore(places int, timed bool, budget int64, dir string) *rowStore {
	return &rowStore{places: places, timed: timed, budget: budget, dir: dir}
}

// Len returns the number of stored rows.
func (s *rowStore) Len() int { return s.n }

// Bytes returns the encoded size in bytes, in memory plus on disk.
func (s *rowStore) Bytes() int { return len(s.buf) + int(s.spilled) }

// Err returns the first I/O or decode error the store hit; once
// non-nil the store's contents must not be trusted. The builders check
// it at every window barrier.
func (s *rowStore) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *rowStore) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Close removes the temp file. It is idempotent; reads after Close are
// undefined.
func (s *rowStore) Close() error {
	if s.f == nil {
		return nil
	}
	name := s.f.Name()
	err := s.f.Close()
	s.f = nil
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// Add appends row verbatim and returns its id.
func (s *rowStore) Add(row []byte) int {
	if s.ends == nil && len(row) != s.places {
		s.ends = make([]int, s.n-s.base, 2*(s.n-s.base)+1)
		for i := range s.ends {
			s.ends[i] = (i + 1) * s.places
		}
	}
	s.buf = append(reserve(s.buf, len(row)), row...)
	if s.ends != nil {
		s.ends = append(reserve(s.ends, 1), len(s.buf))
	}
	s.n++
	if s.budget > 0 && int64(len(s.buf)) > s.budget {
		s.spill()
	}
	return s.n - 1
}

// Keep marks the rows from id first on as the ones that must stay
// resident, and spills what the budget then allows.
func (s *rowStore) Keep(first int) {
	s.keep = first
	if s.budget > 0 && int64(len(s.buf)) > s.budget {
		s.spill()
	}
}

// start returns the offset in buf of resident row base+i.
func (s *rowStore) start(i int) int {
	if s.ends == nil {
		return i * s.places
	}
	if i == 0 {
		return 0
	}
	return s.ends[i-1]
}

// resident returns a view of row id, which must be resident.
func (s *rowStore) resident(id int) []byte {
	i := id - s.base
	if s.ends == nil {
		return s.buf[i*s.places : (i+1)*s.places]
	}
	return s.buf[s.start(i):s.ends[i]]
}

// Row returns row id: a view of a resident row, valid until the next
// Add, or a spilled row copied into *scratch, which grows as needed.
// Callers must not modify it. On a read error it returns an empty row
// and the error sticks (see Err).
func (s *rowStore) Row(id int, scratch *[]byte) []byte {
	if id >= s.base {
		return s.resident(id)
	}
	row := (*scratch)[:0]
	s.visit(id, id+1, func(_ int, r []byte) bool {
		row = append(row, r...)
		return false
	})
	*scratch = row
	return row
}

// At decodes the marking with the given id into dst (grown if needed)
// and returns it. On a read error dst is zeroed and the error sticks.
func (s *rowStore) At(id int, dst petri.Marking) petri.Marking {
	dst = slices.Grow(dst[:0], s.places)[:s.places]
	var scratch []byte
	readMarking(s.Row(id, &scratch), dst)
	return dst
}

// Span calls fn for each id in [lo, hi) in order, with the decoded
// marking in a buffer that is reused between calls and the row it was
// decoded from; fn must not retain or modify either. Returning false
// stops the iteration. Spilled rows are read a block at a time.
func (s *rowStore) Span(lo, hi int, fn func(id int, m petri.Marking, row []byte) bool) {
	if lo >= hi {
		return
	}
	m := make(petri.Marking, s.places)
	s.rows(lo, hi, func(id int, row []byte) bool {
		readMarking(row, m)
		return fn(id, m, row)
	})
}

// rows calls fn for each id in [lo, hi) in order with its row, which fn
// must not retain or modify. Returning false stops the iteration.
// Spilled rows are read a block at a time.
func (s *rowStore) rows(lo, hi int, fn func(id int, row []byte) bool) {
	if lo < s.base && !s.visit(lo, min(hi, s.base), fn) {
		return
	}
	for id := max(lo, s.base); id < hi; id++ {
		if !fn(id, s.resident(id)) {
			return
		}
	}
}

// spill moves the oldest whole blocks below the keep mark to the temp
// file, until the resident rows are at most half the budget, and then
// moves the rest to a new buffer. Spilling down to half the budget
// means the copy happens once per half a budget of new rows.
func (s *rowStore) spill() {
	moved, cut := 0, 0 // rows and bytes spilled
	for s.base+moved+blockRows <= min(s.keep, s.n) && int64(len(s.buf)-cut) > s.budget/2 {
		end := s.start(moved + blockRows)
		if !s.write(moved, cut, end) {
			break
		}
		moved, cut = moved+blockRows, end
	}
	if moved == 0 {
		return
	}
	s.buf = slices.Clone(s.buf[cut:])
	if s.ends != nil {
		ends := make([]int, len(s.ends)-moved, cap(s.ends)-moved)
		for i, e := range s.ends[moved:] {
			ends[i] = e - cut
		}
		s.ends = ends
	}
	s.base += moved
}

// write appends resident rows [base+i, base+i+blockRows), which are
// buf[start:end], to the temp file as one frame: the body's length,
// then the body, the row count, each row's length and the rows.
func (s *rowStore) write(i, start, end int) bool {
	if s.Err() != nil {
		return false
	}
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "pnut-reach-spill-*.bin")
		if err != nil {
			s.setErr(fmt.Errorf("reach: spill store: %w", err))
			return false
		}
		s.f = f
	}
	var hdr [binary.MaxVarintLen64]byte // room for the frame header, written last
	b := binary.AppendUvarint(append(s.wbuf[:0], hdr[:]...), blockRows)
	for j, at := i, start; j < i+blockRows; j++ {
		next := s.start(j + 1)
		b = binary.AppendUvarint(b, uint64(next-at))
		at = next
	}
	b = append(b, s.buf[start:end]...)
	h := binary.PutUvarint(hdr[:], uint64(len(b)-len(hdr)))
	frame := b[len(hdr)-h:]
	copy(frame, hdr[:h])
	s.wbuf = b
	if _, err := s.f.WriteAt(frame, s.spilled); err != nil {
		s.setErr(fmt.Errorf("reach: spill store: %w", err))
		return false
	}
	s.blocks = append(s.blocks, s.spilled)
	s.spilled += int64(len(frame))
	return true
}

// visit calls fn for each spilled id in [lo, hi) in order with its row,
// reading each block once into a pooled buffer, so concurrent readers
// are safe. It reports false if fn stopped it or a read failed; a read
// error sticks (see Err).
func (s *rowStore) visit(lo, hi int, fn func(id int, row []byte) bool) bool {
	bb, _ := s.pool.Get().(*blockBuf)
	if bb == nil {
		bb = new(blockBuf)
	}
	defer s.pool.Put(bb)
	for k := lo / blockRows; k*blockRows < hi; k++ {
		end := s.spilled
		if k+1 < len(s.blocks) {
			end = s.blocks[k+1]
		}
		bb.frame = slices.Grow(bb.frame[:0], int(end-s.blocks[k]))[:end-s.blocks[k]]
		if _, err := s.f.ReadAt(bb.frame, s.blocks[k]); err != nil {
			s.setErr(fmt.Errorf("reach: spill store: %w", err))
			return false
		}
		body, err := decodeFrame(bb.frame)
		var rows []byte
		if err == nil {
			rows, bb.ends, err = decodeBlock(body, s.places, s.timed, bb.ends[:0])
		}
		if err == nil && len(bb.ends) != blockRows {
			err = fmt.Errorf("reach: spill block: %d rows, want %d", len(bb.ends), blockRows)
		}
		if err != nil {
			s.setErr(err)
			return false
		}
		for j := max(lo-k*blockRows, 0); j < blockRows && k*blockRows+j < hi; j++ {
			start := 0
			if j > 0 {
				start = bb.ends[j-1]
			}
			if !fn(k*blockRows+j, rows[start:bb.ends[j]]) {
				return false
			}
		}
	}
	return true
}

// --- block decoding ---------------------------------------------------
//
// The decoders below validate framing and contents so that corrupt or
// truncated blocks (bit rot in a spill file) error out rather than
// panic or return garbage — the same contract FuzzColReader enforces
// for the trace codec, enforced here by FuzzSpillBlock. Every uvarint
// must be canonical: an overlong encoding such as 0x80 0x00 for 0
// would decode to a known state yet differ from its row byte for
// byte, and the dedup, which compares rows, would then store the
// state twice.

// canonicalUvarint is binary.Uvarint that also rejects an overlong
// encoding, returning n == 0, so each accepted value has exactly one
// encoding.
func canonicalUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// decodeFrame splits one framed block (uvarint body length + body)
// into its body, rejecting implausible or mismatched lengths.
func decodeFrame(frame []byte) ([]byte, error) {
	bl, k := canonicalUvarint(frame)
	if k <= 0 {
		return nil, fmt.Errorf("reach: spill block: truncated or overlong frame header")
	}
	if bl > maxSpillBody {
		return nil, fmt.Errorf("reach: spill block: implausible body length %d", bl)
	}
	if int(bl) != len(frame)-k {
		return nil, fmt.Errorf("reach: spill block: body length %d does not match frame (%d bytes)", bl, len(frame)-k)
	}
	return frame[k:], nil
}

// decodeBlock checks a block body (the row count, each row's length,
// then the rows) and returns its rows back to back, with each row's end
// offset in them appended to ends. Every failure mode of a corrupt block
// (a bad count or length, truncated or overlong varints, values out of
// range, trailing bytes) is an error, never a panic.
func decodeBlock(body []byte, places int, timed bool, ends []int) ([]byte, []int, error) {
	count, off := canonicalUvarint(body)
	if off <= 0 {
		return nil, ends, fmt.Errorf("reach: spill block: truncated or overlong row count")
	}
	if count == 0 || count > blockRows {
		return nil, ends, fmt.Errorf("reach: spill block: implausible row count %d", count)
	}
	end := 0
	for i := 0; i < int(count); i++ {
		l, n := canonicalUvarint(body[off:])
		if n <= 0 {
			return nil, ends, fmt.Errorf("reach: spill block: truncated or overlong length of row %d", i)
		}
		if l < uint64(places) || l > uint64(len(body)) {
			return nil, ends, fmt.Errorf("reach: spill block: implausible length %d of row %d", l, i)
		}
		off += n
		end += int(l)
		ends = append(ends, end)
	}
	rows := body[off:]
	if end != len(rows) {
		return nil, ends, fmt.Errorf("reach: spill block: rows of %d bytes in %d", end, len(rows))
	}
	start := 0
	for i, e := range ends {
		if err := checkRow(rows[start:e], places, timed); err != nil {
			return nil, ends, fmt.Errorf("reach: spill block: row %d: %w", i, err)
		}
		start = e
	}
	return rows, ends, nil
}

// checkRow checks that row is places counts of at most maxSpillCount
// and, when timed, then a pending count and (transition, remaining time)
// pairs, at least as many as the pending count, each transition an
// int32 and each time an int64: every number a canonical uvarint, with
// nothing after.
func checkRow(row []byte, places int, timed bool) error {
	var pending uint64
	i := 0
	for off := 0; off < len(row); i++ {
		v, n := canonicalUvarint(row[off:])
		if n <= 0 {
			return fmt.Errorf("truncated or overlong number %d", i)
		}
		off += n
		switch j := i - places; {
		case j < 0:
			if v > maxSpillCount {
				return fmt.Errorf("count %d out of range", v)
			}
		case !timed:
			return fmt.Errorf("more than %d counts", places)
		case j == 0:
			pending = v
		case j%2 == 1 && v > math.MaxInt32, v > math.MaxInt64:
			return fmt.Errorf("timer value %d out of range", v)
		}
	}
	switch pairs := (i - places - 1) / 2; {
	case i < places:
		return fmt.Errorf("%d counts, want %d", i, places)
	case !timed:
		return nil
	case i == places || (i-places-1)%2 != 0:
		return fmt.Errorf("timers are not a pending count and pairs")
	case pending > uint64(pairs):
		return fmt.Errorf("%d pending firings of %d timers", pending, pairs)
	}
	return nil
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

// readMarking decodes the marking at the start of row, a row encoded
// by appendMarking and possibly followed by timers, into dst. A row of
// one byte per place holds every count in a single byte and is read
// without varint decoding.
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
