package engine

import (
	"fmt"
	"sort"
	"time"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/query"
	"supg/internal/storage"
)

// The durable storage tier (Options.PersistDir) hooks into the engine
// at four points:
//
//   - Open stages everything the storage tier recovered: datasets and
//     verified indexes wait in e.staged / e.stagedIx until the
//     registrations they depend on arrive.
//   - Registration either ADOPTS staged state (first registration of a
//     recovered name with identical content — loading, not
//     superseding, mirroring the label store's WAL semantics) or
//     durably drops and rewrites it.
//   - tableIndex flushes a freshly built index after publishing it,
//     outside the engine lock; a per-table epoch makes a flush that
//     raced an invalidation abandon itself instead of resurrecting
//     tombstoned state.
//   - Every invalidation site (table/proxy/oracle re-registration,
//     append-driven entry drops) tombstones the corresponding durable
//     record, so a restart can never resurrect state the process
//     dropped.
//
// All staged state is consumed at most once: a staged index either
// becomes the cache entry for its (table, source) — whole if lengths
// match, as the base of an append chain if the table grew — or is
// durably dropped the first time it is found unusable.

// stagedTable is a recovered dataset awaiting its first registration.
type stagedTable struct {
	ds  *dataset.Dataset
	crc uint32
}

// stagedIndex is a recovered, verified index awaiting the first query
// of its (table, source) after the member registrations return.
type stagedIndex struct {
	ix          *index.ScoreIndex
	proxies     []string
	fusion      query.FusionKind
	calibOracle string
}

func (si *stagedIndex) usesProxy(name string) bool {
	for _, p := range si.proxies {
		if p == name {
			return true
		}
	}
	return false
}

// matches reports whether the staged index's provenance is exactly the
// plan source's (defense in depth: the cache key already encodes it).
func (si *stagedIndex) matches(src query.ScoreSource) bool {
	if si.fusion != src.Fusion || len(si.proxies) != len(src.Proxies) {
		return false
	}
	for i, p := range si.proxies {
		if src.Proxies[i] != p {
			return false
		}
	}
	return true
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
			ix:          ri.Index,
			proxies:     ri.Proxies,
			fusion:      fusion,
			calibOracle: ri.CalibOracle,
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

// persistTableLocked records a table registration durably. The first
// registration of a recovered name with identical content (same
// dataset pointer, or same binary CRC) adopts the on-disk state — the
// files already describe exactly this dataset, and the staged indexes
// stay eligible. Anything else — a RE-registration, or different
// content — durably drops the old state (dataset, indexes, staged
// recoveries) and persists the new dataset. Callers hold e.mu.
func (e *Engine) persistTableLocked(name string, d *dataset.Dataset, existed bool) {
	if e.store == nil {
		return
	}
	if !existed {
		if st, ok := e.staged[name]; ok && (st.ds == d || storage.DatasetCRC(d) == st.crc) {
			delete(e.staged, name)
			return
		}
	}
	e.dropStagedTableLocked(name)
	e.store.DropTable(name)
	e.store.SaveDataset(name, d) // best-effort: a failed write degrades to rebuild-on-boot
}

// dropStagedTableLocked discards staged recoveries of a table (the
// durable records go with store.DropTable). Callers hold e.mu.
func (e *Engine) dropStagedTableLocked(name string) {
	delete(e.staged, name)
	for k := range e.stagedIx {
		if k.table == name {
			delete(e.stagedIx, k)
		}
	}
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

// adoptStagedLocked consumes a staged recovered index for key, if one
// exists and is usable against the current table and source. It
// returns a build closure (plus the recovered flag) or nil to build
// from scratch. Callers hold e.mu; fns are the snapshotted member
// proxies of the source.
func (e *Engine) adoptStagedLocked(key indexKey, src query.ScoreSource, table *dataset.Dataset, fns []ProxyUDF) func() (built, error) {
	if e.store == nil {
		return nil
	}
	si, ok := e.stagedIx[key]
	if !ok {
		return nil
	}
	delete(e.stagedIx, key) // consumed either way
	if !si.matches(src) || si.ix.Len() > table.Len() {
		e.dropIndexDurably(key)
		return nil
	}
	if si.ix.Len() == table.Len() {
		// Whole-index adoption: zero proxy calls, zero sorts — the
		// verified on-disk permutation answers queries byte-identically.
		ix := si.ix
		return func() (built, error) { return built{ix: ix}, nil }
	}
	// The table grew (AppendTable, or a larger upload adopted by CRC —
	// impossible, so: appends) since the index was flushed. Label-free
	// sources extend incrementally: score only the tail and append it
	// as fresh segments, exactly like an in-process append. Calibrated
	// fusions must recalibrate against the grown population — drop.
	if src.Fusion.Calibrated() {
		e.dropIndexDurably(key)
		return nil
	}
	base, fusion := si.ix, src.Fusion
	lo, hi, source := base.Len(), table.Len(), key.source
	return func() (built, error) {
		fresh, err := fuseRange(fns, fusion, lo, hi)
		if err != nil {
			return built{}, fmt.Errorf("engine: source %q: %w", source, err)
		}
		b := built{proxyCalls: len(fns) * (hi - lo)}
		ix, err := base.Append(fresh)
		if err != nil {
			return b, fmt.Errorf("engine: source %q: %w", source, err)
		}
		b.ix = ix
		return b, nil
	}
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
