// SpillStore is the disk-spillable StateStore: marking rows are sealed
// into self-contained, length-prefixed blocks, and once the sealed
// blocks held in memory exceed a byte budget the oldest spill to a
// temp file. A block index keeps random access at one block decode
// whether the block is in memory or on disk, and frontier expansion
// (Span) streams blocks sequentially — so MaxStates can exceed what RAM
// would hold. The temp file belongs to one process and one store, so
// its layout carries no version.
package reach

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"

	"repro/internal/petri"
)

const (
	// spillBlockEntries is the number of rows per sealed block. Worst-
	// case random access decodes one block.
	spillBlockEntries = 64
	// maxSpillBody bounds a plausible block body; larger length prefixes
	// are rejected as corruption before any allocation.
	maxSpillBody = 1 << 26
	// maxSpillCount bounds a plausible token count; decoded counts
	// outside [0, maxSpillCount] are rejected as corruption.
	maxSpillCount = 1 << 40
)

// spillBlock is one sealed block: held in memory (body != nil) or
// spilled to the temp file at [off, off+len).
type spillBlock struct {
	body []byte
	off  int64
	len  int
}

// SpillStore implements StateStore with a bounded in-memory footprint.
// Appends seal every spillBlockEntries rows into a framed block; sealed
// blocks spill to a temp file, oldest first, whenever their total size
// exceeds the budget (budget 0 spills every sealed block). Reads of
// spilled blocks go through ReadAt, so they are safe concurrently,
// matching the StateStore contract.
type SpillStore struct {
	places int
	budget int64
	dir    string

	blocks []spillBlock
	cur    []byte // open block: rows, no count prefix yet
	curN   int
	n      int

	memBytes  int64 // sealed bodies still in memory
	spilled   int64 // bytes written to the temp file
	nextSpill int   // first sealed block not yet spilled
	f         *os.File
	fileOff   int64
	closed    bool

	pool  sync.Pool // *[]byte frame read buffers
	errMu sync.Mutex
	err   error
}

// NewSpillStore returns an empty spillable store. budget is the
// in-memory byte allowance for sealed blocks (0 = spill every sealed
// block); dir is the temp-file directory ("" = the system temp dir).
// The temp file is created lazily on first spill and removed by Close.
func NewSpillStore(places int, budget int64, dir string) *SpillStore {
	if budget < 0 {
		budget = 0
	}
	return &SpillStore{places: places, budget: budget, dir: dir}
}

// Len returns the number of stored markings.
func (s *SpillStore) Len() int { return s.n }

// Bytes returns the encoded size in bytes, in memory plus on disk.
func (s *SpillStore) Bytes() int { return int(s.memBytes+s.spilled) + len(s.cur) }

// SpilledBytes returns how many encoded bytes currently live in the
// temp file rather than memory.
func (s *SpillStore) SpilledBytes() int64 { return s.spilled }

// Err returns the first I/O or decode error the store hit.
func (s *SpillStore) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *SpillStore) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Close removes the temp file. It is idempotent; reads after Close are
// undefined.
func (s *SpillStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	name := s.f.Name()
	err := s.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// Add appends row verbatim and returns its id.
func (s *SpillStore) Add(row []byte) int {
	s.cur = append(s.cur, row...)
	s.curN++
	s.n++
	if s.curN == spillBlockEntries {
		s.seal()
	}
	return s.n - 1
}

// seal closes the open block: the body (count prefix + rows) joins the
// sealed set, and the oldest sealed blocks spill while the in-memory
// total exceeds the budget.
func (s *SpillStore) seal() {
	body := make([]byte, 0, len(s.cur)+2)
	body = binary.AppendUvarint(body, uint64(s.curN))
	body = append(body, s.cur...)
	s.blocks = append(s.blocks, spillBlock{body: body})
	s.memBytes += int64(len(body))
	s.cur = s.cur[:0]
	s.curN = 0
	for s.memBytes > s.budget && s.nextSpill < len(s.blocks) {
		if !s.spillOne() {
			return
		}
	}
}

// spillOne writes the oldest in-memory sealed block to the temp file.
func (s *SpillStore) spillOne() bool {
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
	b := &s.blocks[s.nextSpill]
	frame := make([]byte, 0, len(b.body)+binary.MaxVarintLen64)
	frame = binary.AppendUvarint(frame, uint64(len(b.body)))
	frame = append(frame, b.body...)
	if _, err := s.f.WriteAt(frame, s.fileOff); err != nil {
		s.setErr(fmt.Errorf("reach: spill store: %w", err))
		return false
	}
	s.memBytes -= int64(len(b.body))
	s.spilled += int64(len(frame))
	b.off, b.len, b.body = s.fileOff, len(frame), nil
	s.fileOff += int64(len(frame))
	s.nextSpill++
	return true
}

// visitBlock decodes block b (from memory, the temp file or the open
// block) and calls fn for each of its rows. Safe for concurrent
// readers: spilled blocks are read with ReadAt into pooled buffers.
func (s *SpillStore) visitBlock(b int, fn func(i int, m petri.Marking, row []byte) bool) error {
	if b == len(s.blocks) {
		// Open block: rows live in cur without a count prefix.
		_, err := decodeSpillRows(s.cur, s.places, s.curN, fn)
		return err
	}
	blk := &s.blocks[b]
	if blk.body != nil {
		_, err := decodeSpillBody(blk.body, s.places, fn)
		return err
	}
	bufp, _ := s.pool.Get().(*[]byte)
	var buf []byte
	if bufp != nil {
		buf = *bufp
	}
	buf = slices.Grow(buf[:0], blk.len)[:blk.len]
	defer s.pool.Put(&buf)
	if _, err := s.f.ReadAt(buf, blk.off); err != nil {
		return fmt.Errorf("reach: spill store: %w", err)
	}
	body, err := decodeSpillFrame(buf)
	if err != nil {
		return err
	}
	_, err = decodeSpillBody(body, s.places, fn)
	return err
}

// Row copies row id out of its block, appended to dst[:0]. On a read
// error it returns dst[:0] and the error sticks (see Err).
func (s *SpillStore) Row(id int, dst []byte) []byte {
	dst = dst[:0]
	target := id % spillBlockEntries
	err := s.visitBlock(id/spillBlockEntries, func(i int, _ petri.Marking, row []byte) bool {
		if i == target {
			dst = append(dst, row...)
			return false
		}
		return true
	})
	if err != nil {
		s.setErr(err)
	}
	return dst
}

// At decodes the marking with the given id into dst (grown if needed)
// and returns it. On a read error dst is zeroed and the error sticks
// (see Err).
func (s *SpillStore) At(id int, dst petri.Marking) petri.Marking {
	dst = slices.Grow(dst[:0], s.places)[:s.places]
	target := id % spillBlockEntries
	err := s.visitBlock(id/spillBlockEntries, func(i int, m petri.Marking, _ []byte) bool {
		if i == target {
			copy(dst, m)
			return false
		}
		return true
	})
	if err != nil {
		s.setErr(err)
		clear(dst)
	}
	return dst
}

// Span calls fn for each id in [lo, hi) in order, streaming whole
// blocks sequentially — this is the frontier-expansion read path, so a
// spilled graph is walked with one block fetch per spillBlockEntries
// markings.
func (s *SpillStore) Span(lo, hi int, fn func(id int, m petri.Marking, row []byte) bool) {
	if lo >= hi {
		return
	}
	stopped := false
	for b := lo / spillBlockEntries; b <= (hi-1)/spillBlockEntries && !stopped; b++ {
		base := b * spillBlockEntries
		err := s.visitBlock(b, func(i int, m petri.Marking, row []byte) bool {
			id := base + i
			if id < lo {
				return true
			}
			if id >= hi || !fn(id, m, row) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			s.setErr(err)
			return
		}
	}
}

// --- block decoding ---------------------------------------------------
//
// The decoders below validate framing and contents so that corrupt or
// truncated blocks (bit rot in a spill file) error out rather than
// panic or return garbage — the same contract FuzzColReader enforces
// for the trace codec, enforced here by FuzzSpillBlock. Every uvarint
// must be canonical: an overlong encoding such as 0x80 0x00 for 0
// would decode to a known marking yet differ from its row byte for
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

// decodeSpillFrame splits one framed block (uvarint body length + body)
// into its body, rejecting implausible or mismatched lengths.
func decodeSpillFrame(frame []byte) ([]byte, error) {
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

// decodeSpillBody parses a block body — uvarint row count, then the
// rows — calling fn for each row (fn may stop early by returning
// false). It returns the row count. Every failure mode of a corrupt
// block (bad count, truncated or overlong varints, counts out of range,
// trailing bytes) is an error, never a panic.
func decodeSpillBody(body []byte, places int, fn func(i int, m petri.Marking, row []byte) bool) (int, error) {
	count, k := canonicalUvarint(body)
	if k <= 0 {
		return 0, fmt.Errorf("reach: spill block: truncated or overlong row count")
	}
	if count == 0 || count > spillBlockEntries {
		return 0, fmt.Errorf("reach: spill block: implausible row count %d", count)
	}
	if int(count)*places > len(body)-k {
		return 0, fmt.Errorf("reach: spill block: %d rows cannot fit %d bytes", count, len(body)-k)
	}
	stopped := false
	off, err := decodeSpillRows(body[k:], places, int(count), func(i int, m petri.Marking, row []byte) bool {
		if fn != nil && !fn(i, m, row) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if !stopped && off != len(body)-k {
		return 0, fmt.Errorf("reach: spill block: %d trailing bytes", len(body)-k-off)
	}
	return int(count), nil
}

// decodeSpillRows walks count rows of data calling fn with each row's
// marking, in a reused decode buffer, and its bytes. fn may stop early
// by returning false. It returns the bytes consumed.
func decodeSpillRows(data []byte, places, count int, fn func(i int, m petri.Marking, row []byte) bool) (int, error) {
	cur := make(petri.Marking, places)
	off := 0
	for i := 0; i < count; i++ {
		start := off
		for p := range cur {
			v, n := canonicalUvarint(data[off:])
			if n <= 0 {
				return off, fmt.Errorf("reach: spill block: truncated or overlong count in row %d", i)
			}
			if v > maxSpillCount {
				return off, fmt.Errorf("reach: spill block: count %d out of range", v)
			}
			cur[p] = int(v)
			off += n
		}
		if fn != nil && !fn(i, cur, data[start:off]) {
			return off, nil
		}
	}
	return off, nil
}
