package engine

import (
	"sort"
	"time"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/query"
	"supg/internal/storage"
)

// Every score-source index has one lifecycle, whatever its origin:
//
//   - Creation (newIndexEntryLocked) snapshots the source's provenance —
//     member proxies, fusion, calibration oracle — and its member proxy
//     UDFs, and picks a base: nothing, or a staged recovered index of
//     the same (table, source) and provenance.
//   - Build (indexEntry.buildRange) scores the records the base does not
//     cover and builds or extends the index; an empty range adopts the
//     base whole. An append republishes each cached label-free entry
//     with its parent's index as the base; calibrated fusions are the
//     one other build, since their stacker needs oracle labels.
//   - Flush (persistIndex) writes a freshly built or extended index to
//     the durable tier outside the engine lock; a per-table epoch makes
//     a flush that raced an invalidation abandon itself instead of
//     resurrecting tombstoned state.
//   - Invalidation (invalidateLocked) is one walk over cached entries
//     and staged recoveries that deletes and durably tombstones every
//     index a re-registration, a wrapped oracle, or an append
//     supersedes. A table's own indexes go with its durable drop
//     (registerTableLocked).
//
// Open stages what the storage tier recovered: datasets and verified
// indexes wait in e.staged / e.stagedIx until the registrations they
// depend on arrive. The first registration of a recovered name is
// loading, not superseding (mirroring the label store's WAL
// semantics): a table with identical content adopts its on-disk state,
// and a first proxy or oracle registration invalidates nothing. A
// re-registration drops. A staged index is consumed at most once: it
// becomes the base of its (table, source) entry or is durably dropped
// the first time it is found unusable.

// stagedTable is a recovered dataset awaiting its first registration.
type stagedTable struct {
	ds  *dataset.Dataset
	crc uint32
}

// stagedIndex is a recovered, verified index awaiting the first query
// of its (table, source) after the member registrations return.
type stagedIndex struct {
	ix *index.ScoreIndex
	provenance
}

// openStorage opens the persistence directory and stages its recovered
// state. Called from Open before the Engine is published.
func (e *Engine) openStorage(opts Options) error {
	if opts.PersistDir == "" {
		return nil
	}
	store, err := storage.Open(storage.Options{Dir: opts.PersistDir, Index: e.ixOpts})
	if err != nil {
		return err
	}
	e.store = store
	for _, rt := range store.RecoveredTables() {
		e.staged[rt.Name] = stagedTable{ds: rt.Dataset, crc: rt.CRC}
	}
	for _, ri := range store.RecoveredIndexes() {
		fusion, ok := fusionFromString(ri.Fusion)
		if !ok {
			store.DropIndex(ri.Table, ri.Source)
			continue
		}
		e.stagedIx[indexKey{table: ri.Table, source: ri.Source}] = &stagedIndex{
			ix:         ri.Index,
			provenance: provenance{proxies: ri.Proxies, fusion: fusion, calibOracle: ri.CalibOracle},
		}
	}
	return nil
}

// fusionFromString inverts query.FusionKind.String.
func fusionFromString(s string) (query.FusionKind, bool) {
	for _, k := range []query.FusionKind{query.FusionNone, query.FusionMean, query.FusionMax, query.FusionLogistic} {
		if k.String() == s {
			return k, true
		}
	}
	return query.FusionNone, false
}

// dropIndexDurably tombstones one (table, source) index record and
// advances the table's epoch, so neither a restart nor an in-flight
// flush can resurrect it. Callers hold e.mu.
func (e *Engine) dropIndexDurably(k indexKey) {
	if e.store != nil {
		e.store.DropIndex(k.table, k.source)
	}
}

// persistDataset records a dataset's current content (AppendTable's
// grown snapshot) without touching index records: index lineages
// survive appends and flush their extended form after the next build.
// Callers hold e.mu.
func (e *Engine) persistDataset(name string, d *dataset.Dataset) {
	if e.store != nil {
		e.store.SaveDataset(name, d)
	}
}

// storeEpoch snapshots the table's invalidation epoch for a new cache
// entry (0 when persistence is off).
func (e *Engine) storeEpoch(table string) uint64 {
	if e.store == nil {
		return 0
	}
	return e.store.Epoch(table)
}

// adoptStagedLocked consumes the staged recovered index for key and
// returns it when it can be the base of an entry with provenance p over
// an n-record table: the provenance matches exactly (defense in depth:
// the cache key already encodes it) and the index covers a prefix of
// the table — all of it for calibrated fusions, whose stacker must be
// refitted against a grown population. An unusable staged index is
// dropped durably. Callers hold e.mu.
func (e *Engine) adoptStagedLocked(key indexKey, p provenance, n int) *index.ScoreIndex {
	si, ok := e.stagedIx[key]
	if !ok {
		return nil
	}
	delete(e.stagedIx, key) // consumed either way
	if !si.equal(p) || si.ix.Len() > n || (p.fusion.Calibrated() && si.ix.Len() != n) {
		e.dropIndexDurably(key)
		return nil
	}
	return si.ix
}

// persistIndex flushes a just-built index to the durable store. Runs
// without e.mu (column and segment writes are the expensive part); the
// epoch captured at entry creation makes a flush that lost a race with
// an invalidation abandon itself (ErrSuperseded) instead of
// resurrecting dropped state. A fully-recovered entry skips the flush:
// its on-disk form is already exact.
func (e *Engine) persistIndex(key indexKey, entry *indexEntry) {
	if e.store == nil || entry.err != nil || entry.res.ix == nil {
		return
	}
	if entry.recovered && entry.res.proxyCalls == 0 {
		return
	}
	meta := storage.IndexMeta{
		Table:       key.table,
		Source:      key.source,
		Fusion:      entry.fusion.String(),
		CalibOracle: entry.calibOracle,
		Proxies:     entry.proxies,
	}
	// Best-effort: ErrSuperseded means an invalidation won the race
	// (correct outcome), any other failure just costs a rebuild on the
	// next boot.
	e.store.SaveIndex(meta, entry.res.ix, entry.epoch)
}

// RecoveryInfo summarizes what the durable storage tier restored at
// Open — for the server's boot banner and tests.
type RecoveryInfo struct {
	// Tables / Indexes / Segments restored, verified, and staged.
	Tables   int
	Indexes  int
	Segments int
	// MappedBytes is the total size of persisted files currently
	// mmap'd into the process (0 on heap-load platforms).
	MappedBytes int64
	// Elapsed is the wall-clock recovery duration.
	Elapsed time.Duration
	// Degraded lists manifest entries that could not be served
	// (corrupt or torn files) and were dropped in favor of a rebuild.
	Degraded []string
}

// RecoveryInfo reports the storage tier's boot-time recovery outcome;
// ok is false when no persistence directory is configured.
func (e *Engine) RecoveryInfo() (RecoveryInfo, bool) {
	if e == nil || e.store == nil {
		return RecoveryInfo{}, false
	}
	st := e.store.Stats()
	return RecoveryInfo{
		Tables:      st.TablesRecovered,
		Indexes:     st.IndexesRecovered,
		Segments:    st.SegmentsRecovered,
		MappedBytes: st.MappedBytes,
		Elapsed:     st.RecoveryElapsed,
		Degraded:    st.Degraded,
	}, true
}

// RecoveredDatasets returns the recovered datasets still awaiting
// their first registration, sorted by name. Registering one of them
// (same pointer or identical content) adopts the on-disk state instead
// of rewriting it — the hook servers use to re-offer recovered tables
// automatically.
func (e *Engine) RecoveredDatasets() []*dataset.Dataset {
	if e == nil || e.store == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*dataset.Dataset, 0, len(e.staged))
	for _, st := range e.staged {
		out = append(out, st.ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Storage exposes the engine's durable store (nil when persistence is
// off) — for stats and tests.
func (e *Engine) Storage() *storage.Store { return e.store }
