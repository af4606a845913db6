// Package labelstore is the cross-query oracle label store: a
// concurrency-safe, bounded cache of ground-truth labels keyed by
// (table, oracle UDF) and record index. The paper's premise is that
// oracle calls are orders of magnitude more expensive than proxy
// evaluations, and labels are a pure function of the record index, so
// once a label has been bought by any query it can be reused by every
// later query of the same (table, oracle) pair — repeated queries,
// sensitivity sweeps, and async jobs stop re-buying ground truth the
// system already paid for.
//
// Reuse changes only cost, never results: in the default charged mode
// the budget wrapper still charges a budget unit for a store hit, so a
// warm query's Indices/Tau/oracle-call trace is byte-identical to a
// cold run; the opt-in reuse-free mode makes hits free, stretching the
// effective sample size (see oracle.Budgeted.WithStore).
//
// The store is bounded by an approximate byte budget with FIFO
// eviction, sharded to keep concurrent queries off a single lock, and
// invalidated (never silently reused) when a table or oracle UDF is
// re-registered. Appends extend a table without changing existing
// record ids or labels, so append leaves the store intact by design.
//
// With Options.WALPath set, every bought label is journaled to a
// write-ahead log (wal.go) built on internal/durable's framed log, the
// same crash-safe log the storage manifest uses.
package labelstore

import (
	"sync"
	"sync/atomic"

	"supg/internal/metrics"
)

// DefaultMaxBytes is the store-wide byte budget when Options.MaxBytes
// is zero.
const DefaultMaxBytes = 64 << 20

// DefaultShards is the per-cache shard count when Options.Shards is
// zero.
const DefaultShards = 16

// entryBytes is the approximate in-memory footprint of one cached
// label: a map[int]bool entry (bucket share, key, value, padding)
// plus its FIFO queue slot. Deliberately conservative so the
// configured byte budget is an upper bound in practice.
const entryBytes = 48

// Options tune a Store. The zero value selects the defaults above.
type Options struct {
	// MaxBytes bounds the approximate total memory of all cached labels
	// across every (table, oracle) pair (0 = DefaultMaxBytes). When the
	// bound is exceeded the inserting shard evicts its oldest entries
	// (FIFO) until the store fits again.
	MaxBytes int64
	// Shards is the number of independently-locked segments per cache
	// (0 = DefaultShards; values are rounded up to a power of two).
	Shards int
	// WALPath, when non-empty, makes the store crash-durable: every
	// label written through a Cache is appended to the write-ahead log
	// at this path, and Open replays the log into memory on boot so a
	// restarted process recovers every label it paid for with zero
	// oracle re-buys. See wal.go for the on-disk format.
	WALPath string
	// WALSyncEvery is the fsync cadence: the log is flushed and synced
	// after every N appended records (0 or 1 = every record, the
	// durable default; larger values trade the tail of a crash for
	// throughput).
	WALSyncEvery int
}

// Key identifies one cache: labels are valid only for a specific
// (table registration, oracle UDF registration) pair.
type Key struct {
	Table  string
	Oracle string
}

// Store is the top-level label store: a registry of per-(table,
// oracle) caches sharing one byte budget and one set of counters. All
// methods are goroutine-safe and nil-safe (a nil *Store serves only
// misses and drops writes), so callers never need a feature gate at
// the call site.
type Store struct {
	mu     sync.RWMutex
	caches map[Key]*Cache

	shards     int
	maxEntries int64
	entries    atomic.Int64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	wal         *wal
	walReplayed atomic.Int64

	counters atomic.Pointer[metrics.Counters]
}

// New returns an empty store with the given bounds. It panics if the
// configured write-ahead log cannot be opened — only reachable when
// Options.WALPath is set; callers configuring a WAL should prefer Open
// and handle the error.
func New(opts Options) *Store {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns a store with the given bounds. When Options.WALPath is
// set it opens (creating if absent) the write-ahead log, replays every
// durable label into the in-memory shards, truncates any torn tail
// left by a crash, and compacts the log if it has grown far past the
// live label set.
func Open(opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	maxEntries := opts.MaxBytes / entryBytes
	if maxEntries < 1 {
		maxEntries = 1
	}
	s := &Store{
		caches:     make(map[Key]*Cache),
		shards:     n,
		maxEntries: maxEntries,
	}
	if opts.WALPath != "" {
		w, replayed, err := openWAL(s, opts.WALPath, opts.WALSyncEvery)
		if err != nil {
			return nil, err
		}
		s.wal = w
		s.walReplayed.Store(replayed)
		// Compact on boot when the log is dominated by dead frames
		// (tombstoned labels, duplicates), so it cannot grow without
		// bound across restarts.
		live := s.entries.Load() + int64(len(s.caches))
		if frames := w.log.Frames(); frames > walCompactMinRecords && frames > 2*live {
			w.mu.Lock()
			err := w.compactLocked()
			w.mu.Unlock()
			if err != nil {
				w.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// WithCounters mirrors hit/miss/eviction/invalidation activity into
// the service counters (shown by GET /v1/stats). Returns s for
// chaining. When a WAL is attached, the records already in the log and
// the labels replayed on boot are folded into the counters at attach
// time.
func (s *Store) WithCounters(c *metrics.Counters) *Store {
	if s != nil {
		s.counters.Store(c)
		if s.wal != nil {
			c.WALRecords(s.wal.recordCount())
			c.WALReplayed(s.walReplayed.Load())
		}
	}
	return s
}

// Close flushes and closes the write-ahead log, if one is attached.
// Nil-safe and idempotent; returns the first WAL append error if any
// write was lost.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.wal.close()
}

// CompactWAL rewrites the write-ahead log to hold only the currently
// live labels, reclaiming the space of tombstoned and duplicate
// records. No-op without a WAL.
func (s *Store) CompactWAL() error {
	if s == nil || s.wal == nil {
		return nil
	}
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.compactLocked()
}

// Cache returns the live cache for the (table, oracle) pair, creating
// it if absent. The returned handle stays valid across invalidations:
// an invalidated handle serves only misses and drops writes, so a
// query that snapshotted it mid-flight can neither read stale labels
// into a later query nor pollute the replacement cache. Returns nil
// when s is nil.
func (s *Store) Cache(table, oracle string) *Cache {
	if s == nil {
		return nil
	}
	key := Key{Table: table, Oracle: oracle}
	s.mu.RLock()
	c := s.caches[key]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.caches[key]; c != nil {
		return c
	}
	c = &Cache{store: s, key: key, shards: make([]shard, s.shards), mask: uint32(s.shards - 1)}
	for i := range c.shards {
		c.shards[i].m = make(map[int]bool)
	}
	s.caches[key] = c
	return c
}

// InvalidateTable kills every cache of the table (any oracle) and
// reports how many caches were dropped. Call when a table is
// re-registered: record ids may now mean different records. With a WAL
// attached, a tombstone is journaled so the dropped labels stay dead
// across restarts.
func (s *Store) InvalidateTable(table string) int {
	if s == nil {
		return 0
	}
	n := s.invalidateMatch(func(k Key) bool { return k.Table == table }, true)
	if n > 0 {
		s.wal.appendTombstone(recTombTable, table)
	}
	return n
}

// InvalidateOracle kills every cache of the oracle UDF (any table) and
// reports how many caches were dropped. Call when an oracle UDF is
// re-registered or wrapped: the function may now label differently.
// With a WAL attached, a tombstone is journaled so the dropped labels
// stay dead across restarts.
func (s *Store) InvalidateOracle(oracle string) int {
	if s == nil {
		return 0
	}
	n := s.invalidateMatch(func(k Key) bool { return k.Oracle == oracle }, true)
	if n > 0 {
		s.wal.appendTombstone(recTombOracle, oracle)
	}
	return n
}

// invalidateMatch kills every cache whose key matches. count=false is
// the WAL replay path: reconstructing a past invalidation must not
// inflate the live stats.
func (s *Store) invalidateMatch(match func(Key) bool, count bool) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	var dead []*Cache
	for k, c := range s.caches {
		if match(k) {
			dead = append(dead, c)
			delete(s.caches, k)
		}
	}
	s.mu.Unlock()
	for _, c := range dead {
		c.kill()
	}
	if n := len(dead); n > 0 && count {
		s.invalidations.Add(int64(n))
		s.counters.Load().LabelCacheInvalidations(int64(n))
	}
	return len(dead)
}

// Len returns the total number of cached labels across all caches.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return int(s.entries.Load())
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	// Hits and Misses count Get outcomes across all caches.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts labels dropped to stay under the byte budget.
	Evictions int64 `json:"evictions"`
	// Invalidations counts caches killed by table/oracle re-registration.
	Invalidations int64 `json:"invalidations"`
	// Entries is the current number of cached labels; Caches the number
	// of live (table, oracle) pairs.
	Entries int64 `json:"entries"`
	Caches  int   `json:"caches"`
	// WALRecords is the number of frames currently in the write-ahead
	// log; WALReplayed the number of labels restored from it on boot.
	// Both zero without a WAL.
	WALRecords  int64 `json:"wal_records"`
	WALReplayed int64 `json:"wal_replayed"`
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.RLock()
	caches := len(s.caches)
	s.mu.RUnlock()
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
		Entries:       s.entries.Load(),
		Caches:        caches,
		WALRecords:    s.wal.recordCount(),
		WALReplayed:   s.walReplayed.Load(),
	}
}

// shard is one independently-locked segment of a cache. Insertion
// order is tracked in a FIFO queue so eviction is O(1).
type shard struct {
	mu   sync.Mutex
	m    map[int]bool
	fifo []int
	head int
}

// Cache is the label cache of one (table, oracle) pair. It implements
// the read/write interface oracle.Budgeted consumes (Get/Put) and is
// safe for concurrent use by any number of queries.
type Cache struct {
	store *Store
	key   Key
	dead  atomic.Bool

	shards []shard
	mask   uint32
}

// Key returns the (table, oracle) pair this cache serves.
func (c *Cache) Key() Key { return c.key }

// shardOf maps a record index to its shard (Fibonacci hashing so
// consecutive ids spread across shards).
func (c *Cache) shardOf(i int) *shard {
	h := uint32(uint64(i)*0x9E3779B97F4A7C15>>32) & c.mask
	return &c.shards[h]
}

// Get returns the cached label of record i. A killed (invalidated)
// cache always misses.
func (c *Cache) Get(i int) (bool, bool) {
	if c.dead.Load() {
		c.store.misses.Add(1)
		c.store.counters.Load().LabelCacheMisses(1)
		return false, false
	}
	sh := c.shardOf(i)
	sh.mu.Lock()
	v, ok := sh.m[i]
	sh.mu.Unlock()
	if ok {
		c.store.hits.Add(1)
		c.store.counters.Load().LabelCacheHits(1)
	} else {
		c.store.misses.Add(1)
		c.store.counters.Load().LabelCacheMisses(1)
	}
	return v, ok
}

// Put records the label of record i. Writes to a killed cache are
// dropped: labels bought against a superseded registration must not
// leak into the replacement cache. When the store-wide byte budget is
// exceeded an oldest entry is evicted — preferably from another shard
// or cache, so a fresh workload is not starved by a budget another
// table filled. With a WAL attached the label is journaled after the
// memory insert, so the log never holds a label memory rejected.
func (c *Cache) Put(i int, v bool) {
	c.put(i, v, true)
}

// put is Put with the WAL append gated: replay applies logged labels
// with log=false (they are already durable). Reports whether the label
// was newly inserted.
func (c *Cache) put(i int, v bool, log bool) bool {
	sh := c.shardOf(i)
	sh.mu.Lock()
	// The dead flag is re-checked under the shard lock: kill sets it
	// before clearing the shards, so an insert that won the lock first
	// is counted (and cleared) by kill, and one that lost observes dead
	// and drops — either way Store.entries stays consistent.
	if c.dead.Load() {
		sh.mu.Unlock()
		return false
	}
	if _, ok := sh.m[i]; ok {
		// Labels are a pure function of the record index; an existing
		// entry is already correct.
		sh.mu.Unlock()
		return false
	}
	sh.m[i] = v
	sh.fifo = append(sh.fifo, i)
	total := c.store.entries.Add(1)
	sh.mu.Unlock()
	if log {
		c.store.wal.appendLabel(c, i, v)
	}
	if total > c.store.maxEntries {
		if n := c.store.evictOne(c, sh); n > 0 {
			c.store.evictions.Add(int64(n))
			c.store.counters.Load().LabelCacheEvictions(int64(n))
		}
	}
	return true
}

// evictOne reclaims one entry to get back under the byte budget. It
// prefers other caches first — a new workload displaces an old one
// instead of self-evicting its own fresh entries forever — then the
// inserting cache's other shards (per-cache FIFO in the common
// single-workload case), and only as a last resort the shard the
// insert landed in. At most one shard lock is held at a time, so
// concurrent evictions cannot deadlock.
func (s *Store) evictOne(from *Cache, inserted *shard) int {
	s.mu.RLock()
	others := make([]*Cache, 0, len(s.caches))
	for _, c := range s.caches {
		if c != from {
			others = append(others, c)
		}
	}
	s.mu.RUnlock()
	for _, c := range others {
		if evictFromCache(c, nil) {
			s.entries.Add(-1)
			return 1
		}
	}
	if evictFromCache(from, inserted) {
		s.entries.Add(-1)
		return 1
	}
	inserted.mu.Lock()
	n := inserted.evictOldest()
	inserted.mu.Unlock()
	s.entries.Add(int64(-n))
	return n
}

// evictFromCache drops the oldest entry of the first non-empty shard
// of c, skipping skip. Reports whether an entry was evicted.
func evictFromCache(c *Cache, skip *shard) bool {
	for i := range c.shards {
		sh := &c.shards[i]
		if sh == skip {
			continue
		}
		sh.mu.Lock()
		n := sh.evictOldest()
		sh.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// evictOldest removes the shard's oldest entry (callers hold sh.mu)
// and returns how many entries were dropped (0 when the shard is
// empty — another shard holds the overflow).
func (sh *shard) evictOldest() int {
	if sh.head >= len(sh.fifo) {
		return 0
	}
	oldest := sh.fifo[sh.head]
	sh.head++
	// Compact the queue once the dead prefix dominates.
	if sh.head > 32 && sh.head > len(sh.fifo)/2 {
		sh.fifo = append(sh.fifo[:0], sh.fifo[sh.head:]...)
		sh.head = 0
	}
	delete(sh.m, oldest)
	return 1
}

// kill marks the cache dead and releases its entries. In-flight
// holders observe only misses and dropped writes from then on.
func (c *Cache) kill() {
	if c.dead.Swap(true) {
		return
	}
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.m))
		sh.m = make(map[int]bool)
		sh.fifo = nil
		sh.head = 0
		sh.mu.Unlock()
	}
	c.store.entries.Add(-n)
}
