// Package cache is the simulation server's content-addressed result
// store: finished sweep bodies keyed by a canonical SHA-256 of what
// they were computed from — the normalized model digest, the expanded
// grid (axes, replication/seed layout, per-run horizon), the stopping
// rule, the metric set and the rendering format. Determinism makes
// this sound: two submissions with equal keys would run cell-for-cell
// identical simulations and render byte-identical bodies, so the
// second one is served from memory and costs nothing.
//
// The key hashes the grid identity of experiment.CellMeta — the one
// normalization (CellMeta.Grid) whose JSON encoding the distributed
// journal compares to decide "same sweep" (CellMeta.SameGrid) — so the
// cache can never conflate grids the coordinator would distinguish,
// and an axis written 0:1:0.5 keys equal to the same axis written
// 0,0.5,1 (both expand before hashing).
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"repro/internal/experiment"
)

// Key derives the content address of one sweep result. modelDigest
// identifies the normalized model (see sweepcli.ModelInfo: the net's
// canonical hash, or the built-in family name); meta pins the expanded
// grid, seed layout, stopping rule and metric set; format names the
// rendering. The meta enters as its grid identity (CellMeta.Grid), the
// same normalization SameGrid compares, so its informational fields
// (net name, format tag, version) are excluded.
func Key(modelDigest string, meta experiment.CellMeta, format string) string {
	blob, err := json.Marshal(struct {
		V     string              `json:"v"`
		Model string              `json:"model"`
		Grid  experiment.CellMeta `json:"grid"`
		Fmt   string              `json:"format"`
	}{V: "pnut-result-key-v1", Model: modelDigest, Grid: meta.Grid(), Fmt: format})
	if err != nil {
		// A resolved spec holds only finite numbers (ParseAxis and the
		// adaptive rule reject the rest), so this cannot fail.
		panic("cache: marshalling result key: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Entry is one cached result body.
type Entry struct {
	ContentType string
	Body        []byte
}

type node struct {
	key   string
	entry Entry
}

// entryOverhead is what an entry costs besides its body: its key, list
// node and map slot, about 220 bytes as measured on the live heap. The
// budget charges it, so many small bodies cannot hold far more memory
// than the budget says.
const entryOverhead = 220

// Cache is a bounded, thread-safe LRU of result bodies. A zero byte
// budget disables storage (every Get misses), which keeps the server
// code unconditional.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	order    *list.List // front = most recently used
	entries  map[string]*list.Element

	hits, misses int64
}

// New returns a cache bounded to maxBytes of stored bodies, each
// charged entryOverhead more.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the entry stored under key. The returned body is shared;
// callers must not modify it.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*node).entry, true
}

// Put stores body under key, evicting least-recently-used entries to
// fit the byte budget. An entry larger than the whole budget is not
// stored. The cache takes ownership of body.
func (c *Cache) Put(key, contentType string, body []byte) {
	size := int64(len(body)) + entryOverhead
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Determinism means a re-put body is identical; just refresh.
		c.order.MoveToFront(el)
		return
	}
	for c.curBytes+size > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		n := back.Value.(*node)
		c.curBytes -= int64(len(n.entry.Body)) + entryOverhead
		delete(c.entries, n.key)
		c.order.Remove(back)
	}
	c.entries[key] = c.order.PushFront(&node{key: key, entry: Entry{ContentType: contentType, Body: body}})
	c.curBytes += size
}

// Stats reports hit/miss counters and current occupancy, the bytes
// charged to the budget: bodies plus entryOverhead each.
func (c *Cache) Stats() (hits, misses int64, entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries), c.curBytes
}
