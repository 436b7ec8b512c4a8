package cache

import (
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sweepcli"
)

func metaFor(t *testing.T, spec sweepcli.Spec) (experiment.CellMeta, string) {
	t.Helper()
	opt, info, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return experiment.MetaOf(opt, info.Name), info.Digest
}

// TestKeyNormalization: equivalent spellings of the same request key
// equal; every semantic difference keys different.
func TestKeyNormalization(t *testing.T) {
	base := sweepcli.Spec{
		Model:      "cache",
		Axes:       []string{"DHitRatio=0:1:0.5"},
		Reps:       3,
		Seed:       7,
		Horizon:    1000,
		Throughput: []string{"Issue"},
	}
	meta, digest := metaFor(t, base)
	key := Key(digest, meta, "csv")

	// The range axis and its explicit expansion are the same grid.
	listAxes := base
	listAxes.Axes = []string{"DHitRatio=0,0.5,1"}
	m2, d2 := metaFor(t, listAxes)
	if got := Key(d2, m2, "csv"); got != key {
		t.Errorf("range vs list axis spelling changed the key: %s vs %s", got, key)
	}

	// The net name is informational: a different meta.Net must not key
	// different (SameGrid ignores it too).
	renamed := meta
	renamed.Net = "other"
	if got := Key(digest, renamed, "csv"); got != key {
		t.Error("informational net name entered the key")
	}

	variants := map[string]func() string{
		"different seed": func() string {
			s := base
			s.Seed = 8
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"different reps": func() string {
			s := base
			s.Reps = 4
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"different horizon": func() string {
			s := base
			s.Horizon = 2000
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"different axis values": func() string {
			s := base
			s.Axes = []string{"DHitRatio=0,0.5"}
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"extra metric": func() string {
			s := base
			s.Utilization = []string{"Bus_busy"}
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"adaptive rule": func() string {
			s := base
			s.Reps = 0
			s.Adaptive = "throughput(Issue):0.05"
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"different model": func() string {
			s := base
			s.Model = "pipeline"
			m, d := metaFor(t, s)
			return Key(d, m, "csv")
		},
		"different format": func() string { return Key(digest, meta, "table") },
	}
	seen := map[string]string{key: "base"}
	for name, mk := range variants {
		k := mk()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyStopRuleSensitivity: every field of the adaptive stopping
// rule is part of the address.
func TestKeyStopRuleSensitivity(t *testing.T) {
	mk := func(relci string, minReps int) string {
		s := sweepcli.Spec{
			Model:      "cache",
			Axes:       []string{"DHitRatio=0.5,0.9"},
			Adaptive:   "throughput(Issue):" + relci,
			MinReps:    minReps,
			Throughput: []string{"Issue"},
		}
		m, d := metaFor(t, s)
		return Key(d, m, "csv")
	}
	a, b, c := mk("0.05", 3), mk("0.02", 3), mk("0.05", 4)
	if a == b || a == c || b == c {
		t.Fatalf("stopping-rule edits did not all change the key: %s %s %s", a, b, c)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	const budget = 2*(40+entryOverhead) + 20 // room for two 40-byte bodies, not three
	c := New(budget)
	body := func(n int) []byte { return make([]byte, n) }
	c.Put("a", "text/plain", body(40))
	c.Put("b", "text/plain", body(40))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// a is now most recently used; inserting c evicts b.
	c.Put("c", "text/plain", body(40))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	// Oversized bodies are not stored at all.
	c.Put("huge", "text/plain", body(budget-entryOverhead+1))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized body was stored")
	}
	hits, misses, entries, bytes := c.Stats()
	if entries != 2 || bytes != 2*(40+entryOverhead) {
		t.Fatalf("stats: %d entries %d bytes, want 2/%d", entries, bytes, 2*(40+entryOverhead))
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("stats: hits=%d misses=%d, want both nonzero", hits, misses)
	}
}

// TestCacheChargesEntryOverhead: many tiny bodies must not hold far
// more memory than the budget, so each entry is charged its key, list
// node and map slot as well as its body.
func TestCacheChargesEntryOverhead(t *testing.T) {
	const budget = 1 << 20
	c := New(budget)
	for i := 0; i < 100_000; i++ {
		c.Put(fmt.Sprintf("%064x", i), "text/plain", []byte("ok"))
	}
	_, _, entries, bytes := c.Stats()
	if limit := budget / (2 + entryOverhead); entries > limit {
		t.Fatalf("%d two-byte entries under a %d-byte budget, want at most %d", entries, budget, limit)
	}
	if bytes > budget || bytes != int64(entries)*(2+entryOverhead) {
		t.Fatalf("stats charge %d bytes for %d entries under a %d-byte budget", bytes, entries, budget)
	}
}

func TestCacheZeroBudget(t *testing.T) {
	c := New(0)
	c.Put("k", "text/plain", []byte("body"))
	if _, ok := c.Get("k"); ok {
		t.Fatal("zero-budget cache stored a body")
	}
}

func TestCacheBodySharing(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", "text/csv", []byte("a,b\n1,2\n"))
	e1, ok1 := c.Get("k")
	e2, ok2 := c.Get("k")
	if !ok1 || !ok2 {
		t.Fatal("entry missing")
	}
	if string(e1.Body) != string(e2.Body) || e1.ContentType != "text/csv" {
		t.Fatal("entries differ")
	}
}

// TestKeyIsStable pins the key derivation: a change to the canonical
// encoding must be deliberate (bump the key version string) because it
// silently invalidates — or worse, aliases — every deployed cache.
func TestKeyIsStable(t *testing.T) {
	lit := experiment.CellMeta{
		Axes:     []experiment.Axis{{Name: "x", Values: []float64{1, 2}}},
		Reps:     2,
		BaseSeed: 5,
		Horizon:  100,
		Metrics:  []string{"throughput(t)"},
		Cells:    4,
	}
	got := Key("builtin:demo", lit, "csv")
	const want = "8808b1e47c3ac95bbc5e784f71565a0c28c1107c00e51dffde25f921c34d57c9"
	if got != want {
		t.Fatalf("key derivation changed: got %s (update the pin only with a deliberate version bump)", got)
	}
}

// TestSpecKeyIsStable pins the key of whole job specs, end to end
// through Spec.Resolve and MetaOf: a change to how a spec expands into
// its grid meta, or to how the meta is normalized before hashing, must
// not move an address that deployed caches hold.
func TestSpecKeyIsStable(t *testing.T) {
	for _, c := range []struct {
		spec sweepcli.Spec
		want string
	}{
		{sweepcli.Spec{
			Model: "cache", Axes: []string{"DHitRatio=0:1:0.5", "MemoryCycles=1,5"},
			Seed: 11, Horizon: 1000, MaxStarts: 900,
			Adaptive: "throughput(Issue):0.05", MinReps: 3, MaxReps: 16, Batch: 2,
			Throughput: []string{"Issue"}, Utilization: []string{"Bus_busy"},
		}, "feeb37538468d543338e159b80df1bca704e9e7053cd0a2b7e4c8f1b4c14aca8"},
		{sweepcli.Spec{
			Model: "pipeline", Axes: []string{"DHitRatio=0.5,0.9"},
			Engine: "reach", MaxStates: 5000, BoundCap: 64, Bound: []string{"Bus_busy"},
		}, "d9aa0176c3f3855baf5d9cb4b446234482140a9c0dd39ac9bdbf3cd4719a6681"},
	} {
		m, d := metaFor(t, c.spec)
		if got := Key(d, m, "csv"); got != c.want {
			t.Errorf("spec %+v keys %s, want %s", c.spec, got, c.want)
		}
	}
}
