// Package storage is the durable tier under the query engine: a
// write-once, CRC-verified on-disk format for datasets, index score
// columns, and per-segment (score, id) permutations, plus an
// append-only MANIFEST log that records which files are live for each
// (table, score source). Files and the log go through internal/durable
// (durable.AtomicWriter and durable.Log), which the label WAL shares.
// The contract is zero-rescan recovery with byte-identical results:
// Open mmaps the persisted files back into index segment views,
// re-proving (not re-computing) each permutation, so a restarted
// process answers queries bit-for-bit the same as before the crash
// while invoking zero proxy UDFs and performing zero permutation
// sorts.
//
// Crash discipline, in order of commit:
//
//  1. data files are written to *.tmp, fsynced, renamed into place,
//     and the directory fsynced;
//  2. only then is a manifest record referencing them appended (and
//     fsynced).
//
// A crash between (1) and (2) leaves orphan files that boot-time
// cleanup removes; a crash during (1) leaves *.tmp litter, also
// removed; a crash mid-append leaves a torn manifest tail, truncated
// at the last whole record. Any file whose size or CRC32 disagrees
// with its manifest record — and any permutation that fails the O(n)
// ascent proof — causes that table or index to be dropped (durably
// tombstoned) rather than served: the engine falls back to a rebuild.
package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"supg/internal/dataset"
	"supg/internal/durable"
	"supg/internal/index"
	"supg/internal/metrics"
)

// Options configures a Store.
type Options struct {
	// Dir is the persistence directory (created if absent).
	Dir string
	// NoMmap forces heap loads with portable decoding even on
	// platforms that support zero-copy mapping.
	NoMmap bool
	// Index supplies the segment size and parallelism recovered
	// indexes use for verification and future appends.
	Index index.Options
}

// ErrSuperseded reports that a SaveIndex was abandoned because the
// table's epoch advanced (a drop or re-registration happened) between
// the snapshot and the commit. Not an error condition: the caller's
// state was intentionally invalidated and must not be resurrected.
var ErrSuperseded = fmt.Errorf("storage: index flush superseded by invalidation")

// IndexMeta is the provenance of a persisted index: enough for the
// engine to re-adopt it after a restart, and to invalidate it when a
// constituent is re-registered.
type IndexMeta struct {
	Table       string
	Source      string // ScoreSource cache key
	Fusion      string // query.FusionKind string form
	CalibOracle string // calibration oracle name, "" if uncalibrated
	Proxies     []string
}

// RecoveredTable is a dataset restored from disk at Open.
type RecoveredTable struct {
	Name    string
	Dataset *dataset.Dataset
	CRC     uint32 // CRC32 (Castagnoli) of the dataset's binary form
}

// RecoveredIndex is a segmented index restored from disk at Open —
// verified, never re-sorted.
type RecoveredIndex struct {
	IndexMeta
	Index *index.ScoreIndex
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	TablesLive   int
	IndexesLive  int
	SegmentsLive int

	TablesRecovered   int
	IndexesRecovered  int
	SegmentsRecovered int

	MappedBytes     int64
	RecoveryElapsed time.Duration
	ManifestRecords int64
	Compactions     int64

	// Degraded lists human-readable notes about state that was present
	// in the manifest but could not be served (corrupt or torn files)
	// and was dropped in favor of a rebuild.
	Degraded []string
}

// Store owns a persistence directory: the MANIFEST log plus write-once
// dataset/column/segment files.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	man    *durable.Log
	st     manifestState
	epochs map[string]uint64
	seq    uint64
	closed bool

	counters *metrics.Counters

	segmentsPersisted int64
	mappedBytes       int64
	compactions       int64

	// Recovery products, immutable after Open.
	recTables   []RecoveredTable
	recIndexes  []RecoveredIndex
	recSegments int
	degraded    []string
	recElapsed  time.Duration
}

// Open replays dir's manifest, loads and verifies every live table and
// index (mmap'd when the platform allows), removes crash litter and
// orphan files, and returns the store ready for appends. Corrupt state
// is dropped — durably tombstoned and reported via Stats().Degraded —
// never served.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("storage: no directory configured")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", opts.Dir, err)
	}
	start := time.Now()
	removeCrashLitter(opts.Dir)
	man, st, err := openManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    opts.Dir,
		opts:   opts,
		man:    man,
		st:     st,
		epochs: make(map[string]uint64),
	}
	s.loadCatalog()
	s.initSeq()
	s.sweepOrphans()
	s.maybeCompactLocked(s.man.Frames())
	s.recElapsed = time.Since(start)
	return s, nil
}

// removeCrashLitter deletes temp files a crash may have left behind:
// half-written *.tmp files (data files and an uncommitted manifest
// rewrite) and MANIFEST.compact, the rewrite temp of older versions.
func removeCrashLitter(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || name == manifestName+".compact" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// loadCatalog materializes every live manifest entry, dropping (with a
// durable tombstone) anything that fails verification.
func (s *Store) loadCatalog() {
	for _, name := range sortedTables(s.st.tables) {
		rec := s.st.tables[name]
		d, err := s.loadDataset(rec)
		if err != nil {
			s.degrade(fmt.Sprintf("table %s: %v", name, err))
			s.tombstone(encodeDropTable(name), recDropTable, name)
			continue
		}
		s.recTables = append(s.recTables, RecoveredTable{Name: name, Dataset: d, CRC: rec.crc})
	}
	for _, k := range sortedIndexKeys(s.st.indexes) {
		rec := s.st.indexes[k]
		tbl, ok := s.st.tables[k.table]
		if !ok {
			// Table was dropped (possibly just above); the index goes
			// with it — recDropTable already covers it in the catalog.
			continue
		}
		ix, err := s.loadIndex(rec, tbl.records)
		if err != nil {
			s.degrade(fmt.Sprintf("index %s/%s: %v", k.table, k.source, err))
			s.tombstone(encodeDropIndex(k), recDropIndex, k)
			continue
		}
		s.recIndexes = append(s.recIndexes, RecoveredIndex{
			IndexMeta: IndexMeta{
				Table:       rec.table,
				Source:      rec.source,
				Fusion:      rec.fusion,
				CalibOracle: rec.calibOracle,
				Proxies:     rec.proxies,
			},
			Index: ix,
		})
		s.recSegments += len(rec.segs)
	}
}

func (s *Store) degrade(note string) {
	s.degraded = append(s.degraded, note)
}

// tombstone durably records a drop discovered during recovery. File
// removal is left to the orphan sweep that follows catalog loading.
func (s *Store) tombstone(payload []byte, rtype byte, rec any) {
	if err := s.man.Append(payload); err != nil {
		// The drop still applies in memory; a re-crash just rediscovers
		// the same corruption on the next boot.
		s.degrade(fmt.Sprintf("tombstone append failed: %v", err))
	}
	s.st.apply(rtype, rec)
}

// loadDataset maps (or reads) and verifies one table's dataset file.
func (s *Store) loadDataset(rec datasetRec) (*dataset.Dataset, error) {
	data, mapped, err := s.loadVerified(rec.file, rec.size, rec.crc)
	if err != nil {
		return nil, err
	}
	df, err := parseDatasetFile(data)
	if err != nil {
		return nil, err
	}
	if df.count != rec.records {
		return nil, fmt.Errorf("dataset file holds %d records, manifest says %d", df.count, rec.records)
	}
	var scores []float64
	if mapped {
		scores = aliasFloat64s(df.scores)
	} else {
		scores = decodeFloat64s(df.scores)
	}
	// Labels are always decoded to the heap (bit-unpacking is required
	// either way); scores ride the mapping zero-copy. The CRC check
	// above stands in for New's per-record range scan.
	return dataset.FromColumns(rec.name, scores, decodeLabelBits(df.labelBits, df.count))
}

// loadIndex maps (or reads) one index's column and segment files and
// reconstructs the ScoreIndex via FromExternal's verification — zero
// sorts, zero proxy calls, byte-identical or rejected.
func (s *Store) loadIndex(rec indexRec, tableRecords int) (*index.ScoreIndex, error) {
	if rec.n > tableRecords {
		return nil, fmt.Errorf("index covers %d rows but table has %d", rec.n, tableRecords)
	}
	colData, colMapped, err := s.loadVerified(rec.colFile, rec.colSize, rec.colCRC)
	if err != nil {
		return nil, fmt.Errorf("column %s: %w", rec.colFile, err)
	}
	cf, err := parseColumnFile(colData)
	if err != nil {
		return nil, err
	}
	if cf.count != rec.n {
		return nil, fmt.Errorf("column file holds %d scores, manifest says %d", cf.count, rec.n)
	}
	var column []float64
	if colMapped {
		column = aliasFloat64s(cf.scores)
	} else {
		column = decodeFloat64s(cf.scores)
	}
	segs := make([]index.SegmentData, len(rec.segs))
	backing := make([]any, 0, len(rec.segs)+1)
	if colMapped {
		backing = append(backing, colData)
	}
	for i, sr := range rec.segs {
		data, mapped, err := s.loadVerified(sr.file, sr.size, sr.crc)
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", sr.file, err)
		}
		sf, err := parseSegmentFile(data)
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", sr.file, err)
		}
		if sf.base != sr.base || sf.count != sr.count {
			return nil, fmt.Errorf("segment %s header (%d,%d) disagrees with manifest (%d,%d)",
				sr.file, sf.base, sf.count, sr.base, sr.count)
		}
		if mapped {
			segs[i] = index.SegmentData{Base: sf.base, Perm: aliasInts(sf.perm), Sorted: aliasFloat64s(sf.sorted)}
			backing = append(backing, data)
		} else {
			segs[i] = index.SegmentData{Base: sf.base, Perm: decodeInts(sf.perm), Sorted: decodeFloat64s(sf.sorted)}
		}
	}
	return index.FromExternal(index.External{Column: column, Segments: segs, Backing: backing}, s.opts.Index)
}

// loadVerified loads one named file and checks its exact size and
// CRC32 against the manifest record before any byte is trusted. The
// second return reports whether the bytes are a shared mapping (alias,
// never copy) or heap (decode).
func (s *Store) loadVerified(name string, wantSize int64, wantCRC uint32) ([]byte, bool, error) {
	if err := checkFileName(name); err != nil {
		return nil, false, err
	}
	path := filepath.Join(s.dir, name)
	mapped := false
	var data []byte
	if mmapSupported && !s.opts.NoMmap {
		if b, err := mapFile(path); err == nil {
			data, mapped = b, true
		}
	}
	if !mapped {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, false, err
		}
		data = b
	}
	if int64(len(data)) != wantSize {
		return nil, false, fmt.Errorf("file is %d bytes, manifest says %d", len(data), wantSize)
	}
	if got := crc32.Checksum(data, durable.Castagnoli); got != wantCRC {
		return nil, false, fmt.Errorf("CRC mismatch (got %08x, manifest says %08x)", got, wantCRC)
	}
	if mapped {
		s.mappedBytes += int64(len(data))
	}
	return data, mapped, nil
}

// checkFileName rejects manifest-supplied file names that could escape
// the persistence directory.
func checkFileName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("invalid file name %q", name)
	}
	return nil
}

// initSeq seeds the file-name sequence above every number in use.
func (s *Store) initSeq() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		dot := strings.IndexByte(name, '.')
		if dot <= 0 {
			continue
		}
		if n, err := strconv.ParseUint(name[:dot], 10, 64); err == nil && n > s.seq {
			s.seq = n
		}
	}
}

// sweepOrphans removes data files the live catalog no longer (or never
// did) reference — the residue of crashes between file commit and
// manifest append, and of drops whose removal was interrupted.
func (s *Store) sweepOrphans() {
	referenced := make(map[string]bool)
	for _, rec := range s.st.tables {
		referenced[rec.file] = true
	}
	for _, rec := range s.st.indexes {
		referenced[rec.colFile] = true
		for _, sr := range rec.segs {
			referenced[sr.file] = true
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if referenced[name] {
			continue
		}
		// .qcv: legacy quantized-index code files, never referenced.
		switch filepath.Ext(name) {
		case ".ds", ".col", ".seg", ".qcv":
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

func (s *Store) nextFileLocked(ext string) string {
	s.seq++
	return fmt.Sprintf("%06d%s", s.seq, ext)
}

// RecoveredTables returns the datasets restored at Open, sorted by name.
func (s *Store) RecoveredTables() []RecoveredTable { return s.recTables }

// RecoveredIndexes returns the verified indexes restored at Open.
func (s *Store) RecoveredIndexes() []RecoveredIndex { return s.recIndexes }

// Epoch returns the table's invalidation epoch. Capture it before
// building an index; pass it to SaveIndex so a drop that raced the
// build cannot be overwritten by a stale flush.
func (s *Store) Epoch(table string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs[table]
}

// WithCounters attaches service metrics, retroactively adding the
// recovery outcome (the store is opened before counters exist).
func (s *Store) WithCounters(c *metrics.Counters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = c
	c.StorageRecovered(int64(len(s.recTables)), int64(len(s.recIndexes)), int64(s.recSegments))
	c.StorageMappedBytes(s.mappedBytes)
	c.StorageRecoveryMillis(s.recElapsed.Milliseconds())
	c.StorageSegmentsPersisted(s.segmentsPersisted)
	c.StorageManifestRecords(s.man.Frames())
	c.StorageManifestCompactions(s.compactions)
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := 0
	for _, rec := range s.st.indexes {
		segs += len(rec.segs)
	}
	return Stats{
		TablesLive:        len(s.st.tables),
		IndexesLive:       len(s.st.indexes),
		SegmentsLive:      segs,
		TablesRecovered:   len(s.recTables),
		IndexesRecovered:  len(s.recIndexes),
		SegmentsRecovered: s.recSegments,
		MappedBytes:       s.mappedBytes,
		RecoveryElapsed:   s.recElapsed,
		ManifestRecords:   s.man.Frames(),
		Compactions:       s.compactions,
		Degraded:          append([]string(nil), s.degraded...),
	}
}

// DatasetCRC computes the CRC32 (Castagnoli) of d's binary interchange
// form without materializing it — the identity the manifest records for
// a persisted dataset, usable to recognize a re-registration of
// identical content.
func DatasetCRC(d *dataset.Dataset) uint32 {
	h := crc32.New(durable.Castagnoli)
	dataset.WriteBinary(h, d) // hash writers cannot fail
	return h.Sum32()
}

// SaveDataset persists a table's dataset and commits it to the
// manifest, superseding (and deleting) any previous dataset file for
// the name. Index records for the table are left alone — an append
// grows the dataset without invalidating index lineages.
func (s *Store) SaveDataset(name string, d *dataset.Dataset) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("storage: store closed")
	}
	file := s.nextFileLocked(".ds")
	s.mu.Unlock()

	crc, size, err := writeDatasetFile(filepath.Join(s.dir, file), d)
	if err != nil {
		return fmt.Errorf("storage: persist dataset %s: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		os.Remove(filepath.Join(s.dir, file))
		return fmt.Errorf("storage: store closed")
	}
	rec := datasetRec{name: name, file: file, records: d.Len(), crc: crc, size: size}
	before := s.man.Frames()
	if err := s.man.Append(encodeDataset(rec)); err != nil {
		os.Remove(filepath.Join(s.dir, file))
		return err
	}
	old, had := s.st.tables[name]
	s.st.apply(recDataset, rec)
	if had && old.file != file {
		os.Remove(filepath.Join(s.dir, old.file))
	}
	s.maybeCompactLocked(before)
	return nil
}

// SaveIndex persists an index built for meta's (table, source) at the
// given epoch: the contiguous score column plus one file per segment,
// committed as a single manifest record. Segment files from a previous
// flush of the same lineage are reused by (base, count) — segments are
// immutable, so an append-grown index rewrites only its new tail.
// Returns ErrSuperseded (after deleting anything it wrote) if the
// table's epoch advanced, i.e. an invalidation raced the build.
func (s *Store) SaveIndex(meta IndexMeta, ix *index.ScoreIndex, epoch uint64) error {
	key := ixKey{meta.Table, meta.Source}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("storage: store closed")
	}
	if s.epochs[meta.Table] != epoch {
		s.mu.Unlock()
		return ErrSuperseded
	}
	old, hadOld := s.st.indexes[key]
	reuse := make(map[[2]int]segRec, len(old.segs))
	if hadOld {
		for _, sr := range old.segs {
			reuse[[2]int{sr.base, sr.count}] = sr
		}
	}
	segs := make([]segRec, ix.Segments())
	var writes []int // positions in segs whose files must be written
	for i := range segs {
		sd := ix.SegmentView(i)
		if sr, ok := reuse[[2]int{sd.Base, len(sd.Perm)}]; ok {
			segs[i] = sr
			continue
		}
		segs[i] = segRec{file: s.nextFileLocked(".seg"), base: sd.Base, count: len(sd.Perm)}
		writes = append(writes, i)
	}
	colFile := old.colFile
	colCRC, colSize := old.colCRC, old.colSize
	writeCol := !hadOld || old.n != ix.Len()
	if writeCol {
		colFile = s.nextFileLocked(".col")
	}
	s.mu.Unlock()

	// File IO happens outside the lock; the epoch re-check below
	// catches any invalidation that lands meanwhile.
	written := make([]string, 0, len(writes)+1)
	abort := func() {
		for _, f := range written {
			os.Remove(filepath.Join(s.dir, f))
		}
	}
	if writeCol {
		crc, size, err := writeColumnFile(filepath.Join(s.dir, colFile), ix.Scores())
		if err != nil {
			abort()
			return fmt.Errorf("storage: persist column for %s/%s: %w", meta.Table, meta.Source, err)
		}
		colCRC, colSize = crc, size
		written = append(written, colFile)
	}
	for _, i := range writes {
		crc, size, err := writeSegmentFile(filepath.Join(s.dir, segs[i].file), ix.SegmentView(i))
		if err != nil {
			abort()
			return fmt.Errorf("storage: persist segment for %s/%s: %w", meta.Table, meta.Source, err)
		}
		written = append(written, segs[i].file)
		segs[i].crc, segs[i].size = crc, size
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.epochs[meta.Table] != epoch {
		abort()
		if s.closed {
			return fmt.Errorf("storage: store closed")
		}
		return ErrSuperseded
	}
	rec := indexRec{
		table:       meta.Table,
		source:      meta.Source,
		fusion:      meta.Fusion,
		calibOracle: meta.CalibOracle,
		proxies:     append([]string(nil), meta.Proxies...),
		n:           ix.Len(),
		colFile:     colFile,
		colCRC:      colCRC,
		colSize:     colSize,
		segs:        segs,
	}
	before := s.man.Frames()
	if err := s.man.Append(encodeIndex(rec)); err != nil {
		abort()
		return err
	}
	// Catalog state may have shifted while we wrote (another flush of
	// the same key): re-snapshot to delete exactly the files the new
	// record supersedes.
	cur, hadCur := s.st.indexes[key]
	s.st.apply(recIndex, rec)
	if hadCur {
		keep := make(map[string]bool, len(segs)+1)
		keep[colFile] = true
		for _, sr := range segs {
			keep[sr.file] = true
		}
		if !keep[cur.colFile] {
			os.Remove(filepath.Join(s.dir, cur.colFile))
		}
		for _, sr := range cur.segs {
			if !keep[sr.file] {
				os.Remove(filepath.Join(s.dir, sr.file))
			}
		}
	}
	segWrites := int64(len(writes))
	s.segmentsPersisted += segWrites
	s.counters.StorageSegmentsPersisted(segWrites)
	s.maybeCompactLocked(before)
	return nil
}

// DropTable durably tombstones a table, its dataset file, and every
// index built over it, and advances the table's epoch so in-flight
// index flushes abandon themselves.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store closed")
	}
	s.epochs[name]++
	_, hadTable := s.st.tables[name]
	hasIx := false
	for k := range s.st.indexes {
		if k.table == name {
			hasIx = true
			break
		}
	}
	if !hadTable && !hasIx {
		return nil
	}
	before := s.man.Frames()
	if err := s.man.Append(encodeDropTable(name)); err != nil {
		return err
	}
	if rec, ok := s.st.tables[name]; ok {
		os.Remove(filepath.Join(s.dir, rec.file))
	}
	for k, rec := range s.st.indexes {
		if k.table != name {
			continue
		}
		os.Remove(filepath.Join(s.dir, rec.colFile))
		for _, sr := range rec.segs {
			os.Remove(filepath.Join(s.dir, sr.file))
		}
	}
	s.st.apply(recDropTable, name)
	s.maybeCompactLocked(before)
	return nil
}

// DropIndex durably tombstones one (table, source) index and advances
// the table's epoch. The epoch is per table, so a concurrent flush of a
// sibling source on the same table is also abandoned — it simply stays
// memory-only until its next rebuild, which is safe (never wrong, at
// worst re-done).
func (s *Store) DropIndex(table, source string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store closed")
	}
	s.epochs[table]++
	key := ixKey{table, source}
	rec, ok := s.st.indexes[key]
	if !ok {
		return nil
	}
	before := s.man.Frames()
	if err := s.man.Append(encodeDropIndex(key)); err != nil {
		return err
	}
	os.Remove(filepath.Join(s.dir, rec.colFile))
	for _, sr := range rec.segs {
		os.Remove(filepath.Join(s.dir, sr.file))
	}
	s.st.apply(recDropIndex, key)
	s.maybeCompactLocked(before)
	return nil
}

// maybeCompactLocked folds manifest bookkeeping after an append and
// compacts when dead records dominate. Called with s.mu held (or from
// Open, before s is shared); before is the frame count prior to the
// append(s) being accounted.
func (s *Store) maybeCompactLocked(before int64) {
	if frames := s.man.Frames(); frames >= compactMinFrames && frames > 2*s.st.live() {
		if err := compactManifest(s.man, s.st); err == nil {
			s.compactions++
			s.counters.StorageManifestCompactions(1)
		}
	}
	if delta := s.man.Frames() - before; delta != 0 {
		s.counters.StorageManifestRecords(delta)
	}
}

// Close releases the manifest handle. Mapped files are deliberately
// left mapped: recovered datasets and indexes alias them and may still
// be referenced by in-flight queries.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.man.Close()
}
