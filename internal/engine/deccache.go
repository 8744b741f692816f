package engine

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/securejoin"
)

// This file implements the decrypt-result cache. SJ.Dec is
// deterministic in (token, ciphertext): re-running a query token over
// an unchanged table recomputes exactly the same D values, and at
// ~4.5ms of pairing work per row that recomputation dominates every
// repeated query. The cache memoizes per-row D values under the key
// (table name, table version, SHA-256 of the token bytes), so a warm
// re-execution skips the pairing wall entirely.
//
// The version component is a server-side install counter bumped every
// time a name is (re-)registered; a cached entry can therefore never
// serve rows of a table that was overwritten, even though the
// EncryptedTable structure itself carries no version. The token digest
// binds the entry to one issued token: tokens embed fresh randomness
// (k, delta) per query, so distinct queries never alias, and a reused
// token — the only way to hit — yields bitwise-identical D values by
// determinism of SJ.Dec.
//
// Leakage: a hit reveals nothing the server did not already hold. The
// cached D values are exactly the sigma(q) material the server
// observed when it first executed the token, and the key is derived
// from ciphertext bytes it stores anyway.
//
// Entries are filled sparsely: a prefiltered query decrypts only its
// candidate rows and caches only those slots; a later broader query
// under the same token pays pairings only for the rows still missing.

// decKey identifies one cached decryption: a table version crossed
// with a token digest.
type decKey struct {
	table   string
	version uint64
	token   [sha256.Size]byte
}

// decEntry holds the per-row D values decrypted so far under one key.
// rows is indexed by original row number; nil slots are not yet
// decrypted.
type decEntry struct {
	key   decKey
	rows  []securejoin.DValue
	bytes int64
}

// Byte-accounting constants: a per-entry fixed cost plus a per-slot
// slice header, so even an entry of empty slots is charged against the
// budget.
const (
	decEntryOverhead = 128
	decSlotOverhead  = 24
)

// decryptCache is a byte-budgeted LRU over decEntries. Eviction is per
// entry (one table version x token), never per row.
type decryptCache struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64
	lru       *list.List // of *decEntry; front = most recent
	entries   map[decKey]*list.Element
	hits      uint64
	misses    uint64
	evicted   uint64
	oversized uint64
}

func newDecryptCache(budget int64) *decryptCache {
	return &decryptCache{
		budget:  budget,
		lru:     list.New(),
		entries: make(map[decKey]*list.Element),
	}
}

// snapshot returns a copy of the entry's row slice (sharing the
// immutable DValue bytes) or nil when the key is absent. Copying under
// the lock lets callers read slots while concurrent fills mutate the
// entry.
func (c *decryptCache) snapshot(key decKey) []securejoin.DValue {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*decEntry)
	out := make([]securejoin.DValue, len(e.rows))
	copy(out, e.rows)
	return out
}

// record accumulates lookup statistics for DecryptCacheStats.
func (c *decryptCache) record(hits, misses uint64) {
	c.mu.Lock()
	c.hits += hits
	c.misses += misses
	c.mu.Unlock()
}

// fill installs freshly decrypted rows into the entry for key (creating
// it for a table of n rows), then evicts least-recently-used entries
// until the cache fits its budget again. It returns the number of
// entries evicted and whether the filled entry itself outgrew the whole
// budget. An oversized entry is dropped immediately rather than cached:
// keeping it would first evict every other entry and then be evicted
// itself on the next fill, so an oversized table would thrash the cache
// to empty on every query while never producing a warm hit. Two
// concurrent identical queries may both decrypt a row; determinism
// makes the double fill harmless.
func (c *decryptCache) fill(key decKey, n int, rows []int, vals []securejoin.DValue) (evictions uint64, oversized bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	var e *decEntry
	if ok {
		c.lru.MoveToFront(el)
		e = el.Value.(*decEntry)
	} else {
		e = &decEntry{
			key:   key,
			rows:  make([]securejoin.DValue, n),
			bytes: decEntryOverhead + int64(n)*decSlotOverhead,
		}
		c.entries[key] = c.lru.PushFront(e)
		c.bytes += e.bytes
	}
	for i, r := range rows {
		if r < 0 || r >= len(e.rows) || e.rows[r] != nil {
			continue
		}
		e.rows[r] = vals[i]
		e.bytes += int64(len(vals[i]))
		c.bytes += int64(len(vals[i]))
	}
	if e.bytes > c.budget {
		c.removeLocked(e)
		c.oversized++
		oversized = true
	}
	for c.bytes > c.budget && c.lru.Len() > 0 {
		back := c.lru.Back()
		c.removeLocked(back.Value.(*decEntry))
		evictions++
	}
	c.evicted += evictions
	return evictions, oversized
}

func (c *decryptCache) removeLocked(e *decEntry) {
	el, ok := c.entries[e.key]
	if !ok {
		return
	}
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// purgeTable drops every entry of a table, whatever its version or
// token — called when a name is re-registered or dropped so stale
// versions stop occupying budget. Purges are invalidations, not
// capacity evictions, and are not counted in the eviction metric.
func (c *decryptCache) purgeTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.table == name {
			c.removeLocked(el.Value.(*decEntry))
		}
	}
}

func (c *decryptCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// DecryptCacheStats is a point-in-time view of the decrypt-result
// cache, surfaced through EXPLAIN and the wire server's status.
type DecryptCacheStats struct {
	Enabled   bool
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Oversized counts fills whose single entry outgrew the entire byte
	// budget and was therefore dropped instead of cached (see fill).
	Oversized uint64
	Entries   int
	Bytes     int64
	Budget    int64
}

func (c *decryptCache) stats() DecryptCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DecryptCacheStats{
		Enabled:   true,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Oversized: c.oversized,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.budget,
	}
}

// SetDecryptCache attaches a decrypt-result cache with the given byte
// budget; budget <= 0 detaches it. Safe to call at any time, including
// while joins are executing: the pointer is swapped atomically, in-
// flight decrypt phases finish against whichever cache they loaded, and
// later phases see the new one (resetting the budget discards all
// cached entries along with the old cache).
func (s *Server) SetDecryptCache(budget int64) {
	if budget <= 0 {
		s.decCache.Store(nil)
		s.met.DecCacheBytes.Set(0)
		return
	}
	s.decCache.Store(newDecryptCache(budget))
}

// DecryptCacheStats reports the decrypt cache's counters; Enabled is
// false (and everything else zero) when no cache is attached.
func (s *Server) DecryptCacheStats() DecryptCacheStats {
	cache := s.decCache.Load()
	if cache == nil {
		return DecryptCacheStats{}
	}
	return cache.stats()
}

// tokenDec is the per-stream decryption context of one (token, table
// version) pair: the token's precomputed Miller program plus the cache
// key it decrypts under. The zero key with cached == false means the
// rows bypass the cache.
type tokenDec struct {
	pc     *securejoin.TokenPrecomp
	key    decKey
	cached bool
}

// newTokenDec records the token's Miller program once and derives the
// token's cache key. The key is derived even when no cache is attached
// at open time: SetDecryptCache may install one at runtime, and a
// long-lived stream should start filling it from its next decrypt
// phase.
func (s *Server) newTokenDec(tk *securejoin.Token, table string, version uint64) *tokenDec {
	td := &tokenDec{pc: tk.Precompute()}
	raw, err := tk.MarshalBinary()
	if err != nil {
		// A token that cannot be serialized cannot be cache-keyed; run
		// it uncached rather than fail the join.
		return td
	}
	td.key = decKey{table: table, version: version, token: sha256.Sum256(raw)}
	td.cached = true
	return td
}

// decryptRows runs SJ.Dec over the selected row subset (nil = every
// row) through the stream's precomputed token, spreading the pairings
// over a worker pool (workers <= 0 uses GOMAXPROCS). With a decrypt
// cache attached, rows already decrypted under the same (table
// version, token) are served from it and only the missing rows pay
// pairings; the fresh results are cached for the next lookup.
func (s *Server) decryptRows(td *tokenDec, t *EncryptedTable, rows []int, workers int) ([]securejoin.DValue, error) {
	for _, r := range rows {
		if r < 0 || r >= len(t.Rows) {
			return nil, fmt.Errorf("engine: candidate row %d out of range", r)
		}
	}
	cache := s.decCache.Load()
	if cache == nil || !td.cached {
		cts := gatherCiphertexts(t, rows)
		return securejoin.DecryptTableParallelWith(td.pc, cts, workers)
	}

	snap := cache.snapshot(td.key)
	count := candCount(rows, len(t.Rows))
	out := make([]securejoin.DValue, count)
	var missRows, missPos []int
	for i := 0; i < count; i++ {
		r := candRow(rows, i)
		if snap != nil && r < len(snap) && snap[r] != nil {
			out[i] = snap[r]
			continue
		}
		missRows = append(missRows, r)
		missPos = append(missPos, i)
	}
	hits := uint64(count - len(missRows))
	cache.record(hits, uint64(len(missRows)))
	s.met.DecCacheHits.Add(hits)
	s.met.DecCacheMisses.Add(uint64(len(missRows)))
	if len(missRows) == 0 {
		return out, nil
	}

	cts := gatherCiphertexts(t, missRows)
	vals, err := securejoin.DecryptTableParallelWith(td.pc, cts, workers)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		out[missPos[i]] = v
	}
	evictions, oversized := cache.fill(td.key, len(t.Rows), missRows, vals)
	s.met.DecCacheEvictions.Add(evictions)
	if oversized {
		s.met.DecCacheOversized.Inc()
	}
	s.met.DecCacheBytes.Set(cache.sizeBytes())
	return out, nil
}

// gatherCiphertexts resolves a candidate list (nil = every row, and
// already bounds-checked by the caller) to the rows' join ciphertexts.
func gatherCiphertexts(t *EncryptedTable, rows []int) []*securejoin.RowCiphertext {
	if rows == nil {
		cts := make([]*securejoin.RowCiphertext, len(t.Rows))
		for i, r := range t.Rows {
			cts[i] = r.Join
		}
		return cts
	}
	cts := make([]*securejoin.RowCiphertext, len(rows))
	for i, r := range rows {
		cts[i] = t.Rows[r].Join
	}
	return cts
}
