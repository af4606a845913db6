// Package engine executes SUPG query plans against registered datasets
// and user-defined oracle / proxy functions, mirroring the operational
// architecture of the paper's Section 4.1: a batch query system where
// the user supplies the oracle and proxy as callbacks, the proxy is
// evaluated over the complete dataset up front (it is cheap), and the
// oracle is sampled under the budget.
//
// The proxy scan and everything derived from it are amortized across
// queries: the first query of a (table, proxy) pair evaluates the proxy
// over all records and builds an immutable index.ScoreIndex (validated
// scores, sorted permutation, cached sampling structures); subsequent
// queries — including concurrent ones — reuse it, so their cost is
// O(oracle budget + |result|) rather than O(n log n) per query.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/labelstore"
	"supg/internal/metrics"
	"supg/internal/multiproxy"
	"supg/internal/oracle"
	"supg/internal/query"
	"supg/internal/randx"
	"supg/internal/storage"
)

// ErrUnknownTable is the sentinel wrapped into every "no such table"
// error; callers route on it with errors.Is instead of matching
// message text.
var ErrUnknownTable = errors.New("unknown table")

// OracleUDF is a user-provided ground-truth predicate over record ids.
type OracleUDF func(record int) (bool, error)

// ProxyUDF is a user-provided proxy scorer over record ids; scores must
// be in [0, 1].
type ProxyUDF func(record int) float64

// indexKey identifies one cached per-table score-source index. source
// is query.ScoreSource.CacheKey: the bare proxy name for single-proxy
// sources (byte-compatible with the historical per-proxy cache), the
// full fusion identity — strategy, member proxies, and for calibrated
// fusions the calibration budget and oracle UDF — otherwise.
type indexKey struct {
	table  string
	source string
}

// built is the output of one index build: the index itself plus the
// work accounting the building query reports.
type built struct {
	ix *index.ScoreIndex
	// proxyCalls is the number of proxy UDF evaluations performed
	// (members × records for fused sources).
	proxyCalls int
	// calibCalls / calibHits account the calibration labels of a
	// calibrated fusion: budget-consuming oracle calls and the subset
	// served by the cross-query label store.
	calibCalls int
	calibHits  int
}

// indexEntry is a lazily-built, shared ScoreIndex. The sync.Once makes
// concurrent first queries of the same (table, source) pair build the
// index exactly once while the others wait for it. The build closure
// snapshots the table, member proxies, and (for calibrated fusions)
// the oracle and label-store handle under the same lock that publishes
// the entry into the cache, so an entry can never be built from
// registrations older than the ones its cache slot represents (a later
// re-registration deletes the slot, and the next query snapshots fresh
// state). An append publishes a new entry whose closure chains on the
// replaced one, indexing only the appended records.
//
// The proxies/fusion/calibOracle fields are immutable invalidation
// metadata: re-registering any member proxy drops the entry, and
// re-registering (or wrapping) the calibration oracle drops every
// fused index whose stacker was fitted with its labels.
type indexEntry struct {
	// build produces the index plus its work accounting. Set at entry
	// creation, run at most once via ensure.
	build func() (built, error)

	proxies     []string         // member proxy UDFs, in source order
	fusion      query.FusionKind // FusionNone for single-proxy entries
	calibOracle string           // oracle UDF a calibrated fusion was fitted with ("" otherwise)

	// recovered marks an entry adopted from the durable storage tier:
	// its build verifies (or append-extends) a persisted index instead
	// of scanning proxies. epoch is the table's invalidation epoch at
	// entry creation; a flush with a stale epoch abandons itself. See
	// persist.go.
	recovered bool
	epoch     uint64

	once    sync.Once
	res     built
	err     error
	elapsed time.Duration // wall time of the proxy scan + fusion + index build
}

// ensure runs the entry's build exactly once (concurrent callers wait)
// and reports whether this call performed it.
func (en *indexEntry) ensure() bool {
	ran := false
	en.once.Do(func() {
		ran = true
		start := time.Now()
		en.res, en.err = en.build()
		en.elapsed = time.Since(start)
		// Release the closure: an append entry's build holds the whole
		// parent-entry chain (old indexes, captured datasets), which
		// must not stay reachable once this index is published.
		en.build = nil
	})
	return ran
}

// usesProxy reports whether the entry's source reads the named proxy.
func (en *indexEntry) usesProxy(name string) bool {
	for _, p := range en.proxies {
		if p == name {
			return true
		}
	}
	return false
}

// Options tune index construction for all tables of an engine. The
// zero value selects the index package defaults.
type Options struct {
	// SegmentSize is the records-per-segment of every built score index
	// (<= 0 selects index.DefaultSegmentSize). Smaller segments mean
	// finer-grained parallel builds and cheaper appends; results are
	// identical at every setting.
	SegmentSize int
	// BuildParallelism bounds concurrent segment builds per index
	// (<= 0 selects GOMAXPROCS).
	BuildParallelism int
	// LabelCacheBytes bounds the cross-query oracle label store shared
	// by every query and job of this engine (0 selects
	// labelstore.DefaultMaxBytes; negative disables label reuse
	// entirely). In the default charged mode the store changes only the
	// inner oracle's call count, never query results.
	LabelCacheBytes int64
	// LabelCacheShards is the label store's shard count per (table,
	// oracle) pair (<= 0 selects labelstore.DefaultShards).
	LabelCacheShards int
	// LabelWALPath, when non-empty, makes the label store crash-durable:
	// bought labels are journaled to a write-ahead log at this path and
	// replayed on Open, so a restarted process re-buys zero labels. See
	// labelstore.Options.WALPath. Ignored when the label store is
	// disabled.
	LabelWALPath string
	// LabelWALSyncEvery is the WAL fsync cadence (0 or 1 = every record).
	LabelWALSyncEvery int
	// OracleTimeout bounds one oracle UDF attempt's wall-clock time
	// (0 = unbounded). A timed-out attempt counts as a transient failure
	// and is retried; the oracle UDF must be goroutine-safe when a
	// timeout is set.
	OracleTimeout time.Duration
	// OracleRetries is how many times a transient oracle failure is
	// re-attempted after the first try (0 = fail on first error).
	// Retries never change results: labels are a pure function of the
	// record index, so an eventually-successful call yields exactly the
	// fault-free label and the budget wrapper never sees the failed
	// attempts.
	OracleRetries int
	// OracleBackoff is the base delay before the first retry, doubling
	// per further retry with deterministic jitter (0 = 10ms). Tests use
	// tiny values to keep chaos batteries fast.
	OracleBackoff time.Duration
	// BreakerThreshold is the number of consecutive finally-failed
	// oracle calls (retries exhausted) that trips the per-oracle circuit
	// breaker open (0 = 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening for a probe (0 = 1s).
	BreakerCooldown time.Duration
	// Clock overrides the resilience layer's time source (nil = real
	// time) — tests inject oracle.ManualClock to run retry/backoff and
	// breaker cooldown schedules without sleeping.
	Clock oracle.Clock
	// PersistDir, when non-empty, enables the durable storage tier:
	// registered datasets and built score indexes are flushed to this
	// directory and recovered on Open — mmap'd back into segment views
	// with zero proxy UDF calls and zero permutation sorts, answering
	// queries byte-identically to the pre-restart process. See
	// internal/storage.
	PersistDir string
}

// resilienceEnabled reports whether queries should stack the Resilient
// wrapper onto the oracle UDF.
func (o Options) resilienceEnabled() bool {
	return o.OracleTimeout > 0 || o.OracleRetries > 0
}

// Engine holds the catalog of tables, the UDF registry, and the cache
// of per-(table, proxy) score indexes.
type Engine struct {
	mu      sync.RWMutex
	tables  map[string]*dataset.Dataset
	oracles map[string]OracleUDF
	proxies map[string]ProxyUDF
	indexes map[indexKey]*indexEntry
	// refs backs the dataset-default UDFs (RegisterDatasetDefaults):
	// the closures read the current dataset through the pointer, so
	// AppendTable can extend their domain in place. Re-registration
	// installs a fresh pointer, leaving in-flight builds reading the
	// old snapshot — never torn data.
	refs   map[string]*atomic.Pointer[dataset.Dataset]
	seed   uint64
	ixOpts index.Options
	opts   Options
	// labels is the cross-query oracle label store (nil when disabled).
	// It is invalidated on table/oracle re-registration and survives
	// AppendTable: appends never change existing record ids or labels.
	labels *labelstore.Store
	// breakers holds one circuit breaker per oracle UDF name, created
	// lazily and shared by every query of the backend (guarded by mu).
	breakers map[string]*oracle.Breaker
	// counters receives breaker transitions and retry/timeout activity
	// (nil until WithCounters).
	counters atomic.Pointer[metrics.Counters]
	// store is the durable storage tier (nil when Options.PersistDir is
	// empty). staged / stagedIx hold its recovered datasets and indexes
	// until the registrations they depend on arrive (guarded by mu);
	// see persist.go.
	store    *storage.Store
	staged   map[string]stagedTable
	stagedIx map[indexKey]*stagedIndex
}

// New returns an empty engine whose query randomness derives from seed.
func New(seed uint64) *Engine {
	return NewWithOptions(seed, Options{})
}

// NewWithOptions is New with explicit index-construction, label-store,
// and resilience tuning. It panics if the configured label WAL cannot
// be opened — only reachable when Options.LabelWALPath is set; callers
// configuring a WAL should prefer Open and handle the error.
func NewWithOptions(seed uint64, opts Options) *Engine {
	e, err := Open(seed, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Open is NewWithOptions with the label WAL's open/replay error
// surfaced instead of panicking.
func Open(seed uint64, opts Options) (*Engine, error) {
	var labels *labelstore.Store
	if opts.LabelCacheBytes >= 0 {
		var err error
		labels, err = labelstore.Open(labelstore.Options{
			MaxBytes:     opts.LabelCacheBytes,
			Shards:       opts.LabelCacheShards,
			WALPath:      opts.LabelWALPath,
			WALSyncEvery: opts.LabelWALSyncEvery,
		})
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		tables:  make(map[string]*dataset.Dataset),
		oracles: make(map[string]OracleUDF),
		proxies: make(map[string]ProxyUDF),
		indexes: make(map[indexKey]*indexEntry),
		refs:    make(map[string]*atomic.Pointer[dataset.Dataset]),
		seed:    seed,
		ixOpts: index.Options{
			SegmentSize: opts.SegmentSize,
			Parallelism: opts.BuildParallelism,
		},
		opts:     opts,
		labels:   labels,
		breakers: make(map[string]*oracle.Breaker),
		staged:   make(map[string]stagedTable),
		stagedIx: make(map[indexKey]*stagedIndex),
	}
	if err := e.openStorage(opts); err != nil {
		labels.Close()
		return nil, err
	}
	return e, nil
}

// Close flushes and closes the label store's write-ahead log and the
// durable storage tier, if configured. Nil-safe and idempotent.
func (e *Engine) Close() error {
	if e == nil {
		return nil
	}
	err := e.labels.Close()
	if e.store != nil {
		if cerr := e.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WithCounters mirrors breaker transitions and retry/timeout activity
// into the service counters. Attach before serving queries — breakers
// created earlier keep a nil counter set. Returns e for chaining.
func (e *Engine) WithCounters(c *metrics.Counters) *Engine {
	if e != nil {
		e.counters.Store(c)
		if e.store != nil && c != nil {
			e.store.WithCounters(c)
		}
	}
	return e
}

// LabelStore exposes the engine's cross-query oracle label store (nil
// when disabled via Options.LabelCacheBytes < 0) — for stats, counter
// attachment, and tests.
func (e *Engine) LabelStore() *labelstore.Store { return e.labels }

// breakerFor returns the circuit breaker shared by every query of the
// named oracle UDF, creating it on first use. Returns nil (allow
// everything) when resilience is not configured.
func (e *Engine) breakerFor(name string) *oracle.Breaker {
	if !e.opts.resilienceEnabled() {
		return nil
	}
	e.mu.RLock()
	b := e.breakers[name]
	e.mu.RUnlock()
	if b != nil {
		return b
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if b = e.breakers[name]; b != nil {
		return b
	}
	b = oracle.NewBreaker(oracle.BreakerOptions{
		Threshold: e.opts.BreakerThreshold,
		Cooldown:  e.opts.BreakerCooldown,
		Clock:     e.opts.Clock,
	}).WithCounters(e.counters.Load())
	e.breakers[name] = b
	return b
}

// Breaker exposes the named oracle's circuit breaker (nil when the
// oracle has never been queried under a resilience configuration) —
// for stats, readiness checks, and tests.
func (e *Engine) Breaker(name string) *oracle.Breaker {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.breakers[name]
}

// OpenBreakers reports how many oracle circuit breakers are currently
// not closed — the readiness signal surfaced by GET /readyz.
func (e *Engine) OpenBreakers() int {
	e.mu.RLock()
	breakers := make([]*oracle.Breaker, 0, len(e.breakers))
	for _, b := range e.breakers {
		breakers = append(breakers, b)
	}
	e.mu.RUnlock()
	n := 0
	for _, b := range breakers {
		if b.State() != oracle.BreakerClosed {
			n++
		}
	}
	return n
}

// RegisterTable adds a dataset under the given table name, invalidating
// any cached indexes and stored oracle labels built over a previous
// registration of the name. The label store is invalidated only on
// RE-registration (the name was already registered in this process):
// the first registration after boot is loading, not superseding, so
// labels replayed from the write-ahead log survive it — a restarted
// server that loads the same datasets re-buys zero labels. Operators
// re-registering a table with *different* data after a restart get the
// invalidation at that (second) registration, exactly as in-process.
func (e *Engine) RegisterTable(name string, d *dataset.Dataset) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, existed := e.tables[name]
	e.tables[name] = d
	delete(e.refs, name) // a direct registration detaches default UDF refs
	for k := range e.indexes {
		if k.table == name {
			delete(e.indexes, k)
		}
	}
	if existed {
		e.labels.InvalidateTable(name)
	}
	// The durable tier mirrors the label store's first-registration
	// rule: a fresh boot loading a recovered dataset adopts the on-disk
	// state; a re-registration (or different content) tombstones and
	// rewrites it.
	e.persistTableLocked(name, d, existed)
}

// AppendTable atomically extends table name with extra's records,
// which take the ids [old len, new len). Unlike re-registration, every
// cached index of the table survives: its slot is republished as an
// incremental entry that — on next use — evaluates the proxy over only
// the appended records and merges them into the existing index as a
// fresh segment, instead of re-scanning and re-sorting the whole
// table. Stored oracle labels likewise survive: existing ids keep
// their records and labels, so the label store extends naturally as
// the new ids get labeled. Registered UDFs must accept the extended
// id range; the
// dataset-default UDFs (RegisterDatasetDefaults) are extended
// automatically. The combined dataset is returned.
func (e *Engine) AppendTable(name string, extra *dataset.Dataset) (*dataset.Dataset, error) {
	if extra == nil || extra.Len() == 0 {
		return nil, fmt.Errorf("engine: empty append to table %q", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q (known: %v)", ErrUnknownTable, name, e.tableNamesLocked())
	}
	combined := old.Append(extra)
	e.tables[name] = combined
	if ref, ok := e.refs[name]; ok {
		// Extend the default UDFs' domain. Scores and labels of existing
		// ids are value-identical in the combined dataset, so in-flight
		// index builds reading through the pointer cannot observe torn
		// state.
		ref.Store(combined)
	}
	// Persist the grown dataset. Index records are left alone: lineages
	// survive appends, and each index re-flushes its extended form after
	// its next build.
	e.persistDataset(name, combined)
	oldLen, newLen := old.Len(), combined.Len()
	for key, parent := range e.indexes {
		if key.table != name {
			continue
		}
		// Calibrated fusions cannot extend incrementally: the stacker is
		// fitted on a uniform sample of the whole table, so an append
		// changes the population it must be calibrated against. Drop the
		// entry — the next query rebuilds and recalibrates, and its
		// labels come warm out of the cross-query label store.
		if parent.fusion.Calibrated() {
			delete(e.indexes, key)
			e.dropIndexDurably(key)
			continue
		}
		fns := make([]ProxyUDF, len(parent.proxies))
		ok := true
		for i, p := range parent.proxies {
			if fns[i], ok = e.proxies[p]; !ok {
				break
			}
		}
		if !ok {
			delete(e.indexes, key)
			e.dropIndexDurably(key)
			continue
		}
		key, parent := key, parent
		fusion := parent.fusion
		e.indexes[key] = &indexEntry{
			proxies: parent.proxies,
			fusion:  fusion,
			epoch:   e.storeEpoch(name),
			build: func() (built, error) {
				var b built
				if parent.ensure() {
					b.proxyCalls += parent.res.proxyCalls
				}
				if parent.err != nil {
					return b, parent.err
				}
				fresh, err := fuseRange(fns, fusion, oldLen, newLen)
				if err != nil {
					return b, fmt.Errorf("engine: source %q: %w", key.source, err)
				}
				b.proxyCalls += len(fns) * (newLen - oldLen)
				ix, err := parent.res.ix.Append(fresh)
				if err != nil {
					return b, fmt.Errorf("engine: source %q: %w", key.source, err)
				}
				b.ix = ix
				return b, nil
			},
		}
	}
	return combined, nil
}

// fuseRange evaluates every member proxy over records [lo, hi) and
// fuses the columns with the label-free strategy (FusionNone passes the
// single column through). Label-free fusions are per-record functions,
// which is what makes incremental appends possible: fusing only the
// appended rows yields exactly the rows a full rebuild would compute.
func fuseRange(fns []ProxyUDF, fusion query.FusionKind, lo, hi int) ([]float64, error) {
	cols := make([][]float64, len(fns))
	for i, fn := range fns {
		cols[i] = scoreRange(fn, lo, hi)
	}
	if fusion == query.FusionNone {
		return cols[0], nil
	}
	fuser, err := fuserFor(fusion, 0)
	if err != nil {
		return nil, err
	}
	fused, err := fuser.Fuse(nil, cols, nil)
	if err != nil {
		return nil, err
	}
	return fused.Scores, nil
}

// fuserFor maps the grammar's fusion kind onto the multiproxy provider.
func fuserFor(fusion query.FusionKind, calibBudget int) (multiproxy.Fuser, error) {
	switch fusion {
	case query.FusionMean:
		return multiproxy.Fuser{Kind: multiproxy.FuseMean}, nil
	case query.FusionMax:
		return multiproxy.Fuser{Kind: multiproxy.FuseMax}, nil
	case query.FusionLogistic:
		return multiproxy.Fuser{Kind: multiproxy.FuseLogistic, CalibrationBudget: calibBudget}, nil
	}
	return multiproxy.Fuser{}, fmt.Errorf("engine: unknown fusion %v", fusion)
}

// RegisterOracle adds an oracle UDF under the given function name,
// invalidating any stored labels bought from a previous registration
// and any fused index whose calibration was fitted with its labels.
// As with RegisterTable, the invalidation fires only on
// RE-registration, so WAL-replayed labels survive the first
// registration after a restart.
func (e *Engine) RegisterOracle(name string, fn OracleUDF) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, existed := e.oracles[name]
	e.oracles[name] = fn
	if existed {
		e.invalidateOracleLocked(name)
	}
}

// RegisterProxy adds a proxy UDF under the given function name,
// invalidating any cached index built from a previous registration —
// including every fused index the name is a member of.
func (e *Engine) RegisterProxy(name string, fn ProxyUDF) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, existed := e.proxies[name]
	e.proxies[name] = fn
	for k, en := range e.indexes {
		if en.usesProxy(name) {
			delete(e.indexes, k)
			e.dropIndexDurably(k)
		}
	}
	// Staged recovered indexes follow the first-registration rule: the
	// first RegisterProxy after boot is loading the UDF the index was
	// built from, not superseding it. (In-memory entries need no such
	// guard — they can only exist if the proxy was already registered.)
	if existed {
		for k, si := range e.stagedIx {
			if si.usesProxy(name) {
				delete(e.stagedIx, k)
				e.dropIndexDurably(k)
			}
		}
	}
}

// WrapOracle replaces a registered oracle UDF with wrap(current) — the
// hook for layering simulated latency or instrumentation onto an
// existing registration without re-implementing it. It reports whether
// the name was registered. Stored labels of the name are invalidated —
// the wrapper may change what the function answers — and with them
// every fused index calibrated through it.
func (e *Engine) WrapOracle(name string, wrap func(OracleUDF) OracleUDF) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn, ok := e.oracles[name]
	if !ok {
		return false
	}
	e.oracles[name] = wrap(fn)
	e.invalidateOracleLocked(name)
	return true
}

// invalidateOracleLocked drops everything derived from labels of the
// named oracle: the label store's cache and every index whose fused
// column was calibrated with it. Callers hold e.mu.
func (e *Engine) invalidateOracleLocked(name string) {
	e.labels.InvalidateOracle(name)
	for k, en := range e.indexes {
		if en.calibOracle == name {
			delete(e.indexes, k)
			e.dropIndexDurably(k)
		}
	}
	for k, si := range e.stagedIx {
		if si.calibOracle == name {
			delete(e.stagedIx, k)
			e.dropIndexDurably(k)
		}
	}
}

// RegisterDatasetDefaults registers table name plus "<name>_oracle" and
// "<name>_proxy" UDFs backed by the dataset's own labels and scores —
// the common simulation path. The UDFs read the dataset through an
// indirection the engine updates on AppendTable, so appended records
// are scorable and labelable without re-registering (which would
// invalidate cached indexes). Re-registering defaults installs a fresh
// indirection: queries already building against the old registration
// keep reading the old snapshot.
func (e *Engine) RegisterDatasetDefaults(name string, d *dataset.Dataset) {
	ref := &atomic.Pointer[dataset.Dataset]{}
	ref.Store(d)
	oracleName, proxyName := name+"_oracle", name+"_proxy"
	// One critical section for table, UDFs, ref, and invalidation: a
	// concurrent AppendTable interleaving between the steps could
	// otherwise extend the table without extending the ref the UDFs
	// read, and the next proxy scan would index out of range.
	e.mu.Lock()
	defer e.mu.Unlock()
	_, tableExisted := e.tables[name]
	_, oracleExisted := e.oracles[oracleName]
	_, proxyExisted := e.proxies[proxyName]
	e.tables[name] = d
	e.oracles[oracleName] = func(i int) (bool, error) {
		cur := ref.Load()
		if i < 0 || i >= cur.Len() {
			return false, fmt.Errorf("engine: record %d out of range", i)
		}
		return cur.TrueLabel(i), nil
	}
	e.proxies[proxyName] = func(i int) float64 { return ref.Load().Score(i) }
	e.refs[name] = ref
	for k, en := range e.indexes {
		if k.table == name || en.usesProxy(proxyName) || en.calibOracle == oracleName {
			delete(e.indexes, k)
			if k.table != name {
				// Same-table drops are tombstoned wholesale by
				// persistTableLocked below (when not adopting).
				e.dropIndexDurably(k)
			}
		}
	}
	// Invalidate only on re-registration (see RegisterTable): a fresh
	// boot loading the same dataset keeps every WAL-replayed label.
	if tableExisted {
		e.labels.InvalidateTable(name)
	}
	if oracleExisted {
		e.labels.InvalidateOracle(oracleName)
	}
	if proxyExisted || oracleExisted {
		for k, si := range e.stagedIx {
			if (proxyExisted && si.usesProxy(proxyName)) || (oracleExisted && si.calibOracle == oracleName) {
				delete(e.stagedIx, k)
				e.dropIndexDurably(k)
			}
		}
	}
	e.persistTableLocked(name, d, tableExisted)
}

// QueryResult is the engine-level answer with execution statistics.
type QueryResult struct {
	// Indices is the sorted returned record set.
	Indices []int
	// Tau is the chosen proxy threshold (Inf = sample positives only).
	Tau float64
	// OracleCalls counts budget-consuming oracle invocations.
	OracleCalls int
	// ProxyCalls counts proxy evaluations performed by this query:
	// members × |D| when the query built the table's score-source index
	// from scratch, only the appended records when it extended an index
	// after AppendTable, and 0 when a cached index was reused.
	ProxyCalls int
	// IndexBuilt reports whether this query performed the proxy scan,
	// fusion, and index construction (the first query of a
	// table/score-source pair).
	IndexBuilt bool
	// IndexRecovered reports that this query was the first of its
	// (table, score source) pair and its index came from the durable
	// storage tier instead of a build: zero sorts, and zero proxy calls
	// unless the table grew since the flush (then ProxyCalls covers
	// exactly the appended tail).
	IndexRecovered bool
	// Fusion names the score source's fusion strategy ("mean", "max",
	// "logistic"; empty for the classic single-proxy form).
	Fusion string
	// CalibrationCalls counts the budget-consuming oracle calls spent
	// calibrating a fused index when this query built it (0 on cache
	// hits and for label-free sources). Calibration is charged to index
	// construction — not to the query's ORACLE LIMIT — and amortized
	// across every query sharing the fused index.
	CalibrationCalls int
	// CalibrationCacheHits counts the calibration labels served by the
	// cross-query label store instead of the oracle UDF: a warm
	// recalibration reports CalibrationCalls == CalibrationCacheHits
	// and costs zero real oracle invocations.
	CalibrationCacheHits int
	// LabelCacheHits counts labels served from the cross-query label
	// store instead of the oracle UDF. In the default charged mode they
	// are included in OracleCalls (budget accounting is unchanged); in
	// reuse-free mode they are free.
	LabelCacheHits int
	// Elapsed covers planning through result assembly.
	Elapsed time.Duration
	// ProxyElapsed covers the upfront proxy scan and index build when
	// this query performed it (see IndexBuilt).
	ProxyElapsed time.Duration
	// Plan echoes the executed plan.
	Plan *query.Plan
}

// ExecOptions tune one query execution. The zero value runs the query
// synchronously with a sequential oracle, exactly as ExecutePlan always
// has.
type ExecOptions struct {
	// OracleParallelism bounds the number of concurrent oracle UDF
	// invocations per labeling batch (<= 1 labels sequentially). The
	// oracle UDF must be goroutine-safe when parallelism > 1. Results
	// are independent of the setting: draws are made before labeling,
	// and batch labels are merged back in draw order.
	OracleParallelism int
	// Progress, when non-nil, receives the cumulative count of
	// budget-consuming oracle calls as the query runs. It may be invoked
	// from multiple goroutines concurrently (under parallel dispatch)
	// and must be fast and goroutine-safe.
	Progress func(oracleCalls int)
	// Counters, when non-nil, records query and dispatch activity.
	Counters *metrics.Counters
	// FreeReuse makes cross-query label store hits free instead of
	// budget-charged for this execution — the ExecOptions form of the
	// query grammar's ORACLE LIMIT ... REUSE FREE clause. The default
	// (charged) mode keeps results byte-identical to a cold run; free
	// reuse stretches the effective sample size the budget buys.
	FreeReuse bool
}

// Execute parses, plans, and runs a SUPG statement.
func (e *Engine) Execute(sql string) (*QueryResult, error) {
	return e.ExecuteContext(context.Background(), sql, ExecOptions{})
}

// ExecuteContext parses, plans, and runs a SUPG statement with
// cancellation, oracle parallelism, and progress reporting.
func (e *Engine) ExecuteContext(ctx context.Context, sql string, opts ExecOptions) (*QueryResult, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		return nil, err
	}
	return e.ExecutePlanContext(ctx, plan, opts)
}

// ExecutePlan runs an already-built plan.
func (e *Engine) ExecutePlan(plan *query.Plan) (*QueryResult, error) {
	return e.ExecutePlanContext(context.Background(), plan, ExecOptions{})
}

// ExecutePlanContext runs an already-built plan under ctx: once ctx is
// done the query stops consuming oracle calls and returns ctx's error.
// See ExecOptions for parallel oracle dispatch and progress reporting.
func (e *Engine) ExecutePlanContext(ctx context.Context, plan *query.Plan, opts ExecOptions) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	_, okT := e.tables[plan.Table]
	oracleFn, okO := e.oracles[plan.OracleUDF]
	missingProxy := ""
	for _, p := range plan.Source.Proxies {
		if _, ok := e.proxies[p]; !ok {
			missingProxy = p
			break
		}
	}
	okP := missingProxy == "" && len(plan.Source.Proxies) > 0
	seed := e.seed
	// The label cache handle must be snapshotted under the same lock
	// that read oracleFn: invalidation (RegisterOracle et al.) replaces
	// the UDF and kills the cache atomically under e.mu, so pairing the
	// reads here guarantees a query can never write labels bought from
	// a superseded oracle into the replacement cache — a later
	// re-registration kills this handle, turning its writes into no-ops.
	var labelCache *labelstore.Cache
	if e.labels != nil && okT && okO {
		labelCache = e.labels.Cache(plan.Table, plan.OracleUDF)
	}
	e.mu.RUnlock()

	if !okT {
		return nil, fmt.Errorf("engine: %w %q (known: %v)", ErrUnknownTable, plan.Table, e.tableNames())
	}
	if !okO {
		return nil, fmt.Errorf("engine: unknown oracle UDF %q", plan.OracleUDF)
	}
	if !okP {
		return nil, fmt.Errorf("engine: unknown proxy UDF %q", missingProxy)
	}

	start := time.Now()
	// Stage 1 (§4.1): the proxy scan over the complete set of records,
	// performed once per (table, proxy) registration and indexed.
	entry, built, err := e.tableIndex(plan)
	if err != nil {
		return nil, err
	}

	rng := randx.New(seed).Stream(hashString(plan.SourceText))
	progress := newProgressCounter(opts.Progress)
	orc := e.buildOracle(ctx, plan, oracleFn, opts, progress)
	opts.Counters.QueryExecuted()

	// Wire the shared label store into the budget wrapper. The grammar's
	// REUSE FREE clause and the per-execution option are equivalent —
	// either makes warm hits free instead of budget-charged.
	var sopts core.SelectOptions
	if labelCache != nil {
		sopts.Store = labelCache
		sopts.FreeReuse = opts.FreeReuse || plan.FreeReuse
		if opts.Progress != nil {
			// Charged store hits never reach the counting wrapper below
			// the dispatcher, yet they consume budget; routing them
			// through the same cumulative counter keeps progress totals
			// equal to the result's OracleCalls (see Budgeted.Used).
			sopts.OnCachedCharge = progress.add
		}
	}

	res := &QueryResult{Plan: plan}
	if built {
		if entry.recovered {
			res.IndexRecovered = true
		} else {
			res.IndexBuilt = true
		}
	}
	if !plan.Source.Single() {
		res.Fusion = plan.Source.Fusion.String()
	}
	if built {
		res.ProxyCalls = entry.res.proxyCalls
		res.ProxyElapsed = entry.elapsed
		res.CalibrationCalls = entry.res.calibCalls
		res.CalibrationCacheHits = entry.res.calibHits
	}
	switch plan.Kind {
	case query.PlanBudgeted:
		sel, err := core.SelectFromContextOptions(ctx, rng, entry.res.ix, orc, plan.Spec, plan.Config, sopts)
		if err != nil {
			return nil, err
		}
		res.Indices = sel.Indices
		res.Tau = sel.Tau
		res.OracleCalls = sel.OracleCalls
		res.LabelCacheHits = sel.CachedLabels
	case query.PlanJoint:
		sel, err := core.SelectJointFromContextOptions(ctx, rng, entry.res.ix, orc, plan.JointSpec, plan.Config, sopts)
		if err != nil {
			return nil, err
		}
		res.Indices = sel.Indices
		res.Tau = sel.Tau
		res.OracleCalls = sel.OracleCalls
		res.LabelCacheHits = sel.CachedLabels
	default:
		return nil, fmt.Errorf("engine: unknown plan kind %d", int(plan.Kind))
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// buildOracle stacks the execution options onto the raw oracle UDF.
// From the inside out: the resilience wrapper (per-attempt timeouts,
// retries with deterministic backoff jitter, the per-oracle shared
// circuit breaker) so a transient failure is retried for the failing
// record alone; the progress-counting wrapper, which therefore counts
// only finally-successful invocations; and, when parallelism is
// requested, the batch dispatcher that overlaps oracle latency across
// goroutines. The resilience jitter seed derives from the engine seed
// and the query text — a pure function, so a replayed query backs off
// on an identical schedule regardless of interleaving.
func (e *Engine) buildOracle(ctx context.Context, plan *query.Plan, fn OracleUDF, opts ExecOptions, progress *progressCounter) oracle.Oracle {
	orc := e.resilient(ctx, fn, plan.OracleUDF, e.seed^hashString("resilient:"+plan.SourceText), opts.Counters)
	if opts.Progress != nil {
		orc = &countingOracle{inner: orc, progress: progress}
	}
	if opts.OracleParallelism > 1 {
		orc = oracle.NewDispatcher(orc, opts.OracleParallelism).WithCounters(opts.Counters)
	}
	return orc
}

// resilient wraps the named oracle UDF in the resilience layer when it
// is configured: per-attempt timeouts, retries with backoff jitter from
// seed, and the oracle's shared circuit breaker. counters defaults to
// the engine's.
func (e *Engine) resilient(ctx context.Context, fn OracleUDF, name string, seed uint64, counters *metrics.Counters) oracle.Oracle {
	if !e.opts.resilienceEnabled() {
		return oracle.Func(fn)
	}
	if counters == nil {
		counters = e.counters.Load()
	}
	return oracle.NewResilient(oracle.Func(fn), oracle.ResilientOptions{
		Timeout:     e.opts.OracleTimeout,
		Retries:     e.opts.OracleRetries,
		BaseBackoff: e.opts.OracleBackoff,
		Seed:        seed,
		Clock:       e.opts.Clock,
	}).WithBreaker(e.breakerFor(name)).WithContext(ctx).WithCounters(counters)
}

// progressCounter accumulates budget-consuming oracle calls from both
// sources — real UDF invocations (via countingOracle) and charged
// label-store hits (via the Budgeted charge hook) — into one
// cumulative total for the progress hook, so progress reports always
// agree with the result's OracleCalls. Nil-safe: a nil counter or nil
// hook records nothing.
type progressCounter struct {
	calls atomic.Int64
	hook  func(int)
}

func newProgressCounter(hook func(int)) *progressCounter {
	return &progressCounter{hook: hook}
}

func (p *progressCounter) add(n int) {
	if p == nil || p.hook == nil {
		return
	}
	p.hook(int(p.calls.Add(int64(n))))
}

// countingOracle reports successful oracle invocations to the shared
// progress counter. It sits below the budget wrapper, so every counted
// call is budget-consuming (memoized repeats and store hits never
// reach it), and below the dispatcher, so counts arrive as calls
// complete.
type countingOracle struct {
	inner    oracle.Oracle
	progress *progressCounter
}

func (c *countingOracle) Label(i int) (bool, error) {
	v, err := c.inner.Label(i)
	if err == nil {
		c.progress.add(1)
	}
	return v, err
}

// tableIndex returns the shared ScoreIndex for the plan's (table,
// score source) pair, building it on first use. The second return
// reports whether this call performed the build. The current table,
// member proxy, and — for calibrated fusions — oracle and label-store
// registrations are captured (into the build closure) under the write
// lock that publishes the entry, so a concurrent re-registration
// either deletes the slot before publication (the build sees the new
// state) or after (the slot is gone and the next query snapshots
// afresh) — a cached index can never outlive the registrations it was
// built from. A permanent build error (oracle.Classify) is cached with
// the entry: proxies are deterministic by contract, so retrying cannot
// succeed until a member registration changes (which drops the entry).
// Any other error — a calibration oracle fault that outlived its
// retries — drops the entry instead, so the next query rebuilds; the
// label store still holds every calibration label already bought.
func (e *Engine) tableIndex(plan *query.Plan) (*indexEntry, bool, error) {
	key := indexKey{table: plan.Table, source: plan.Source.CacheKey(plan.OracleUDF)}
	e.mu.RLock()
	entry := e.indexes[key]
	e.mu.RUnlock()
	if entry == nil {
		e.mu.Lock()
		entry = e.indexes[key]
		if entry == nil {
			var err error
			entry, err = e.newIndexEntryLocked(key, plan)
			if err != nil {
				e.mu.Unlock()
				return nil, false, err
			}
			e.indexes[key] = entry
		}
		e.mu.Unlock()
	}
	built := entry.ensure()
	if entry.err != nil {
		if oracle.Classify(entry.err) != oracle.ClassPermanent {
			e.mu.Lock()
			if e.indexes[key] == entry {
				delete(e.indexes, key)
			}
			e.mu.Unlock()
		}
		return nil, built, entry.err
	}
	if built {
		// Flush the fresh index to the durable tier (off the engine
		// lock; no-op when persistence is off or the entry was recovered
		// whole from disk).
		e.persistIndex(key, entry)
	}
	return entry, built, nil
}

// newIndexEntryLocked snapshots the registrations the plan's score
// source reads and returns an unbuilt cache entry for it. Callers hold
// e.mu for writing.
func (e *Engine) newIndexEntryLocked(key indexKey, plan *query.Plan) (*indexEntry, error) {
	table, okT := e.tables[plan.Table]
	if !okT {
		return nil, fmt.Errorf("engine: table %q no longer registered", plan.Table)
	}
	src := plan.Source
	fns := make([]ProxyUDF, len(src.Proxies))
	for i, p := range src.Proxies {
		fn, ok := e.proxies[p]
		if !ok {
			return nil, fmt.Errorf("engine: table %q / proxy %q no longer registered", plan.Table, p)
		}
		fns[i] = fn
	}
	opts := e.ixOpts
	entry := &indexEntry{
		proxies: append([]string(nil), src.Proxies...),
		fusion:  src.Fusion,
		epoch:   e.storeEpoch(key.table),
	}

	// A staged recovered index for this exact (table, source) short-
	// circuits the build: the persisted permutation was verified at
	// boot, so the entry adopts it (whole, or as the base of an append
	// chain when the table grew since the flush).
	if adopted := e.adoptStagedLocked(key, src, table, fns); adopted != nil {
		entry.recovered = true
		entry.build = adopted
		if src.Fusion.Calibrated() {
			entry.calibOracle = plan.OracleUDF
		}
		return entry, nil
	}

	if src.Single() {
		proxyFn, proxyName := fns[0], src.Proxies[0]
		entry.build = func() (built, error) {
			scores := scoreRange(proxyFn, 0, table.Len())
			ix, err := index.NewWithOptions(scores, opts)
			if err != nil {
				return built{proxyCalls: table.Len()}, oracle.Permanent(fmt.Errorf("engine: proxy %q: %w", proxyName, err))
			}
			return built{ix: ix, proxyCalls: table.Len()}, nil
		}
		return entry, nil
	}

	fuser, err := fuserFor(src.Fusion, src.CalibrationBudget)
	if err != nil {
		return nil, err
	}
	// Calibrated fusions label their calibration sample through a
	// dedicated budgeted oracle backed by the cross-query label store:
	// the first build pays real oracle calls, and any rebuild of the
	// same source (after a proxy re-registration, an append, or a failed
	// calibration) is served warm. The calibration oracle carries the
	// same resilience layer and breaker as query oracles. Its random
	// streams derive from the engine seed and the source identity —
	// never from the query text — so every query of the source shares
	// one fused column.
	var (
		oracleFn   OracleUDF
		labelCache *labelstore.Cache
		seed       = e.seed
	)
	if src.Fusion.Calibrated() {
		var okO bool
		oracleFn, okO = e.oracles[plan.OracleUDF]
		if !okO {
			return nil, fmt.Errorf("engine: oracle UDF %q no longer registered", plan.OracleUDF)
		}
		entry.calibOracle = plan.OracleUDF
		if e.labels != nil {
			labelCache = e.labels.Cache(plan.Table, plan.OracleUDF)
		}
	}
	sourceID, oracleName := key.source, plan.OracleUDF
	entry.build = func() (built, error) {
		n := table.Len()
		cols := make([][]float64, len(fns))
		for i, fn := range fns {
			cols[i] = scoreRange(fn, 0, n)
		}
		b := built{proxyCalls: len(fns) * n}
		var budgeted *oracle.Budgeted
		if fuser.NeedsOracle() {
			// The build is shared by every query of the source, so no
			// single query's context may cancel its calibration.
			calib := e.resilient(context.Background(), oracleFn, oracleName, seed^hashString("resilient:calibrate:"+sourceID), nil)
			budgeted = oracle.NewBudgeted(calib, fuser.CalibrationBudget)
			if labelCache != nil {
				// Guard before the interface conversion: a typed-nil
				// *labelstore.Cache would defeat WithStore's nil check and
				// panic on first use when the label store is disabled.
				budgeted.WithStore(labelCache, false)
			}
		}
		rng := randx.New(seed).Stream(hashString("calibrate:" + sourceID))
		fused, err := fuser.Fuse(rng, cols, budgeted)
		if err != nil {
			return b, fmt.Errorf("engine: source %q: %w", sourceID, err)
		}
		b.calibCalls = fused.CalibrationCalls
		b.calibHits = fused.CalibrationStoreHits
		ix, err := index.NewWithOptions(fused.Scores, opts)
		if err != nil {
			return b, oracle.Permanent(fmt.Errorf("engine: source %q: %w", sourceID, err))
		}
		b.ix = ix
		return b, nil
	}
	return entry, nil
}

// scoreAll evaluates the proxy over all records, in parallel shards.
func scoreAll(proxyFn ProxyUDF, n int) []float64 {
	return scoreRange(proxyFn, 0, n)
}

// scoreRange evaluates the proxy over records [lo, hi), in parallel
// shards, returning the hi-lo scores in record order.
func scoreRange(proxyFn ProxyUDF, lo, hi int) []float64 {
	n := hi - lo
	scores := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			for i := start; i < end; i++ {
				scores[i] = proxyFn(lo + i)
			}
		}(start, end)
	}
	wg.Wait()
	return scores
}

func (e *Engine) tableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tableNamesLocked()
}

// tableNamesLocked is tableNames for callers already holding e.mu.
func (e *Engine) tableNamesLocked() []string {
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hashString is FNV-1a, used to derive per-query random streams.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
