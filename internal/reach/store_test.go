package reach

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/petri"
)

// storeWalk returns n markings over places from a random BFS-like walk
// (a few small per-step changes). From step wideFrom on, counts also
// jump across 127, so a store sees stride-width rows first and wider
// rows after.
func storeWalk(r *rand.Rand, places, n, wideFrom int) []petri.Marking {
	out := make([]petri.Marking, 0, n)
	cur := make(petri.Marking, places)
	for i := 0; i < n; i++ {
		for k := 0; k < 1+r.Intn(3); k++ {
			p := r.Intn(places)
			cur[p] += r.Intn(5) - 2
			if i >= wideFrom && r.Intn(4) == 0 {
				cur[p] = 100 + r.Intn(1<<(8+r.Intn(8)))
			}
			if cur[p] < 0 {
				cur[p] = 0
			}
		}
		out = append(out, cur.Clone())
	}
	return out
}

// storeRows returns the rows of ref's markings, each followed by timers
// as a timed state's row is when timed: a pending count and up to three
// (transition, remaining time) pairs, some times past one byte.
func storeRows(r *rand.Rand, ref []petri.Marking, timed bool) [][]byte {
	rows := make([][]byte, len(ref))
	for i, m := range ref {
		rows[i] = appendMarking(nil, m)
		if timed {
			pairs := r.Intn(4)
			rows[i] = binary.AppendUvarint(rows[i], uint64(r.Intn(pairs+1)))
			for k := 0; k < pairs; k++ {
				rows[i] = binary.AppendUvarint(rows[i], uint64(r.Intn(70)))
				rows[i] = binary.AppendUvarint(rows[i], uint64(r.Intn(1000)))
			}
		}
	}
	return rows
}

// checkStore adds rows, the rows of the markings ref, to s, then checks
// every access path against them: random Row and At, with and without
// reused buffers, and sequential spans, including ones that start
// mid-block and ones that straddle wide. keep is the mark the rows are
// added under.
func checkStore(t *testing.T, s *rowStore, ref []petri.Marking, rows [][]byte, wide, keep int) {
	t.Helper()
	s.Keep(keep)
	for i, row := range rows {
		if id := s.Add(row); id != i {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
	}
	n := len(ref)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	r := rand.New(rand.NewSource(int64(n)))
	var buf petri.Marking
	var scratch []byte
	for _, id := range r.Perm(n) {
		if got := s.At(id, nil); !got.Equal(ref[id]) {
			t.Fatalf("At(%d) = %v, want %v", id, got, ref[id])
		}
		buf = s.At(id, buf)
		if !buf.Equal(ref[id]) {
			t.Fatalf("At(%d, buf) = %v, want %v", id, buf, ref[id])
		}
		if row := s.Row(id, &scratch); string(row) != string(rows[id]) {
			t.Fatalf("Row(%d) = %x, want %x", id, row, rows[id])
		}
	}
	for _, span := range [][2]int{{0, n}, {blockRows - 1, blockRows + 2}, {wide - 2, min(wide+3, n)}, {17, 17}, {n - 1, n}} {
		next := span[0]
		s.Span(span[0], span[1], func(id int, m petri.Marking, row []byte) bool {
			if id != next {
				t.Fatalf("span %v: got id %d, want %d", span, id, next)
			}
			if !m.Equal(ref[id]) {
				t.Fatalf("span %v: id %d = %v, want %v", span, id, m, ref[id])
			}
			if string(row) != string(rows[id]) {
				t.Fatalf("span %v: row %d = %x, want %x", span, id, row, rows[id])
			}
			next++
			return true
		})
		if next != span[1] && span[0] < span[1] {
			t.Fatalf("span %v stopped at %d", span, next)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("store error: %v", err)
	}
}

// TestMarkingStoreRoundTrip drives the in-memory row store across the
// switch from stride-width rows (found by id*places) to the end-offset
// index that the first wider row builds, and checks every access path.
func TestMarkingStoreRoundTrip(t *testing.T) {
	const places, n, wide = 7, 5*blockRows + 11, 2*blockRows + 5
	r := rand.New(rand.NewSource(42))
	ref := storeWalk(r, places, n, wide)
	rows := storeRows(r, ref, false)
	s := newRowStore(places, false, 0, "")
	checkStore(t, s, ref[:wide], rows[:wide], wide, n)
	if s.ends != nil {
		t.Fatal("stride-width rows built an end-offset index")
	}
	s = newRowStore(places, false, 0, "")
	checkStore(t, s, ref, rows, wide, n)
	if s.ends == nil {
		t.Fatal("wide rows built no end-offset index")
	}
}

// TestSpillStoreRoundTrip checks every access path of the row store
// with a 1-byte budget, across spilled blocks and resident rows, both
// stride-width and wider, untimed and timed. Rows at or above the keep
// mark never spill.
func TestSpillStoreRoundTrip(t *testing.T) {
	const places, n, wide = 7, 5*blockRows + 11, 2*blockRows + 5
	r := rand.New(rand.NewSource(42))
	ref := storeWalk(r, places, n, wide)
	for _, timed := range []bool{false, true} {
		for _, keep := range []int{n, 3*blockRows + 1} {
			t.Run(fmt.Sprintf("timed=%v/keep=%d", timed, keep), func(t *testing.T) {
				s := newRowStore(places, timed, 1, t.TempDir())
				defer s.Close()
				checkStore(t, s, ref, storeRows(r, ref, timed), wide, keep)
				if want := min(keep, n) / blockRows * blockRows; s.base != want {
					t.Fatalf("%d rows spilled, want %d", s.base, want)
				}
			})
		}
	}
}

// TestHashMarkingDistinguishes sanity-checks the dedup hash: equal
// markings hash equal, and small perturbations change the hash (not a
// collision guarantee — dedup always verifies bytes — just a smoke
// check that the mixing isn't degenerate).
func TestHashMarkingDistinguishes(t *testing.T) {
	m := petri.Marking{3, 0, 200, 1, 0, 7, 9, 2, 5, 1}
	for _, h := range []struct {
		name string
		fn   func(petri.Marking) uint64
	}{
		{"hashRow", func(m petri.Marking) uint64 { return hashRow(appendMarking(nil, m)) }},
	} {
		if h.fn(m) != h.fn(m.Clone()) {
			t.Fatalf("%s: equal markings hash differently", h.name)
		}
		seen := map[uint64]bool{h.fn(m): true}
		for i := range m {
			p := m.Clone()
			p[i]++
			v := h.fn(p)
			if seen[v] {
				t.Fatalf("%s: perturbing place %d collides", h.name, i)
			}
			seen[v] = true
		}
		// The swap of two unequal counts must change the hash (a pure sum
		// would not).
		sw := m.Clone()
		sw[0], sw[1] = sw[1], sw[0]
		if h.fn(sw) == h.fn(m) {
			t.Fatalf("%s: position-swapped marking collides", h.name)
		}
	}
	// A row that is a prefix of another, zero-padded, must hash apart:
	// the word hash folds in the length.
	if hashRow([]byte{1, 2, 3}) == hashRow([]byte{1, 2, 3, 0}) {
		t.Fatal("hashRow: zero-padded row collides")
	}
	// Both low bits (the owning shard) and high bits (the table slot)
	// must vary across rows that differ in one byte.
	var low, high [2]int
	row := make([]byte, 36)
	for i := 0; i < 256; i++ {
		row[i%len(row)] = byte(i)
		h := hashRow(row)
		low[h&1]++
		high[h>>63]++
	}
	if min(low[0], low[1], high[0], high[1]) < 64 {
		t.Fatalf("hashRow bits are lopsided: low %v, high %v", low, high)
	}
}

// TestReadMarkingRoundTrip checks that readMarking inverts
// appendMarking on both of its paths: one byte per count, and varints
// of up to three bytes.
func TestReadMarkingRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		m := make(petri.Marking, 1+r.Intn(12))
		for p := range m {
			m[p] = r.Intn(1 << (1 + r.Intn(16)))
		}
		b := appendMarking(nil, m)
		back := make(petri.Marking, len(m))
		readMarking(b, back)
		if !back.Equal(m) {
			t.Fatalf("%v: read back %v from %x", m, back, b)
		}
	}
}
