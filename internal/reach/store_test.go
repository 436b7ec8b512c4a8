package reach

import (
	"math/rand"
	"testing"

	"repro/internal/petri"
)

// TestMarkingStoreRoundTrip drives the delta/keyframe codec across
// block boundaries with random BFS-like walks (small per-step deltas)
// and checks every access path: random at, sequential span, equal.
func TestMarkingStoreRoundTrip(t *testing.T) {
	const places, n = 7, 5*storeBlock + 11
	r := rand.New(rand.NewSource(42))
	s := NewMemStore(places)
	ref := make([]petri.Marking, 0, n)
	cur := make(petri.Marking, places)
	for i := 0; i < n; i++ {
		// Mutate a few places, like firing a transition would.
		for k := 0; k < 1+r.Intn(3); k++ {
			p := r.Intn(places)
			cur[p] += r.Intn(5) - 2
			if cur[p] < 0 {
				cur[p] = 0
			}
		}
		if id := s.Add(cur); id != i {
			t.Fatalf("add returned id %d, want %d", id, i)
		}
		ref = append(ref, cur.Clone())
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// Random access, out of order, with and without a reused buffer.
	var buf petri.Marking
	for _, id := range r.Perm(n) {
		if got := s.At(id, nil); !got.Equal(ref[id]) {
			t.Fatalf("at(%d) = %v, want %v", id, got, ref[id])
		}
		buf = s.At(id, buf)
		if !buf.Equal(ref[id]) {
			t.Fatalf("at(%d, buf) = %v, want %v", id, buf, ref[id])
		}
	}
	// Sequential spans, including ones that start mid-block.
	for _, span := range [][2]int{{0, n}, {storeBlock - 1, storeBlock + 2}, {17, 17}, {n - 1, n}} {
		next := span[0]
		s.Span(span[0], span[1], func(id int, m petri.Marking) bool {
			if id != next {
				t.Fatalf("span %v: got id %d, want %d", span, id, next)
			}
			if !m.Equal(ref[id]) {
				t.Fatalf("span %v: id %d = %v, want %v", span, id, m, ref[id])
			}
			next++
			return true
		})
		if next != span[1] && span[0] < span[1] {
			t.Fatalf("span %v stopped at %d", span, next)
		}
	}
}

// TestHashMarkingDistinguishes sanity-checks the dedup hash: equal
// markings hash equal, and small perturbations change the hash (not a
// collision guarantee — dedup always verifies bytes — just a smoke
// check that the mixing isn't degenerate).
func TestHashMarkingDistinguishes(t *testing.T) {
	m := petri.Marking{3, 0, 200, 1, 0}
	if hashMarking(m) != hashMarking(m.Clone()) {
		t.Fatal("equal markings hash differently")
	}
	seen := map[uint64]bool{hashMarking(m): true}
	for i := range m {
		p := m.Clone()
		p[i]++
		h := hashMarking(p)
		if seen[h] {
			t.Fatalf("perturbing place %d collides", i)
		}
		seen[h] = true
	}
	// The swap of two unequal counts must change the hash (a pure sum
	// would not).
	sw := petri.Marking{0, 3, 200, 1, 0}
	if hashMarking(sw) == hashMarking(m) {
		t.Fatal("position-swapped marking collides")
	}
	// The root, the frontier's encoded candidates and hashTimed share
	// one hash: hashMarking(m) is FNV-1a over m's keyframe bytes, and
	// those bytes decode back to m. Counts reach past 1<<14, so the
	// varints run to three bytes.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		m := make(petri.Marking, 1+r.Intn(12))
		for p := range m {
			m[p] = r.Intn(1 << (1 + r.Intn(16)))
		}
		b := appendMarking(nil, m)
		if hashBytes(b) != hashMarking(m) {
			t.Fatalf("%v: FNV of the encoding %x != hashMarking", m, b)
		}
		back := make(petri.Marking, len(m))
		if n := readMarking(b, back); n != len(b) || !back.Equal(m) {
			t.Fatalf("%v: read back %v from %d of %d bytes", m, back, n, len(b))
		}
	}
}
