package storage

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"

	"supg/internal/durable"
)

// The MANIFEST is an append-only log of catalog records. It is a
// durable.Log — the same framing, torn-tail truncation, and atomic
// rewrite as the label store's WAL — with its own CRC: each record is
//
//	[4B LE payload length][4B LE CRC32(Castagnoli) of payload][payload]
//
// (the WAL frames with CRC32 IEEE), with payload[0] a record-type byte.
// A torn or corrupt tail — short frame, bad CRC, or a well-framed
// payload that fails to decode — marks the end of the usable log:
// everything before it is applied, the tail is truncated on open.
// Replay folds records last-wins into the live catalog:
//
//	recDataset   — a table's dataset file (name, file, records, crc, size)
//	recIndex     — a segmented index for (table, score source): its
//	               column file, segment files, and provenance (proxies,
//	               fusion kind, calibration oracle)
//	recDropTable — tombstone: the table and all its indexes are gone
//	recDropIndex — tombstone for one (table, score source) index
//	recIndexQ    — legacy recIndex of a since-removed quantized index:
//	               each segment entry additionally names a .qcv
//	               code-vector file with CRC and size. It is no longer
//	               written. Replay decodes it as a plain recIndex and
//	               drops the code fields, so the float segments are
//	               recovered and the unreferenced .qcv files are swept
//	               at boot; the next flush or compaction rewrites the
//	               record as recIndex.
//
// Data files referenced by a record are fully written, fsynced, and
// renamed into place BEFORE the record is appended, so a record in the
// manifest implies its files are durable; a crash between file commit
// and record append leaves an orphan file that boot-time cleanup
// removes. When dead records outnumber live ones the log is compacted
// by rewriting the live records through durable.Log.Rewrite
// (MANIFEST.tmp, fsync, rename, directory fsync).

const (
	recDataset   byte = 1
	recIndex     byte = 2
	recDropTable byte = 3
	recDropIndex byte = 4
	recIndexQ    byte = 5

	manifestName = "MANIFEST"

	// maxManifestList bounds decoded list lengths (segments, proxies).
	maxManifestList = 1 << 20

	// compactMinFrames: don't bother compacting tiny logs.
	compactMinFrames = 64
)

// manifestFormat is the MANIFEST's framing. The frame bound caps a
// single record (an index record lists every segment file name; 8 MiB
// covers ~10^5 segments).
var manifestFormat = durable.Format{CRC: durable.Castagnoli, MaxFrame: 8 << 20}

// datasetRec describes a table's persisted dataset file.
type datasetRec struct {
	name    string
	file    string
	records int
	crc     uint32
	size    int64
}

// segRec describes one persisted segment file of an index.
type segRec struct {
	file  string
	base  int
	count int
	crc   uint32
	size  int64
}

// indexRec describes a persisted segmented index and its provenance.
type indexRec struct {
	table       string
	source      string // ScoreSource cache key
	fusion      string // query.FusionKind string form
	calibOracle string // oracle name for calibrated fusion, else ""
	proxies     []string
	n           int // rows covered (== column length)
	colFile     string
	colCRC      uint32
	colSize     int64
	segs        []segRec
}

// ixKey identifies an index in the catalog.
type ixKey struct {
	table  string
	source string
}

// manifestState is the fold of a manifest replay: the live catalog.
type manifestState struct {
	tables  map[string]datasetRec
	indexes map[ixKey]indexRec
}

func newManifestState() manifestState {
	return manifestState{
		tables:  make(map[string]datasetRec),
		indexes: make(map[ixKey]indexRec),
	}
}

func (st *manifestState) live() int64 {
	return int64(len(st.tables) + len(st.indexes))
}

func (st *manifestState) apply(rtype byte, rec any) {
	switch rtype {
	case recDataset:
		st.tables[rec.(datasetRec).name] = rec.(datasetRec)
	case recIndex:
		ir := rec.(indexRec)
		st.indexes[ixKey{ir.table, ir.source}] = ir
	case recDropTable:
		name := rec.(string)
		delete(st.tables, name)
		for k := range st.indexes {
			if k.table == name {
				delete(st.indexes, k)
			}
		}
	case recDropIndex:
		delete(st.indexes, rec.(ixKey))
	}
}

// applyFrame decodes one replayed frame payload and folds it into the
// catalog. A payload that fails to decode ends replay like a torn
// frame does.
func (st *manifestState) applyFrame(payload []byte) bool {
	rtype, rec, err := decodeRecord(payload)
	if err != nil {
		return false
	}
	st.apply(rtype, rec)
	return true
}

// decodeRecord parses one frame payload into its typed record.
func decodeRecord(payload []byte) (byte, any, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("manifest: empty record")
	}
	d := durable.NewDecoder(payload[1:])
	switch rtype := payload[0]; rtype {
	case recDataset:
		rec := datasetRec{
			name:    d.Str(),
			file:    d.Str(),
			records: d.Count(maxFileRecords),
			crc:     uint32(d.Uvarint()),
			size:    int64(d.Uvarint()),
		}
		return rtype, rec, d.Finish("manifest: dataset")
	case recIndex, recIndexQ:
		rec := indexRec{
			table:       d.Str(),
			source:      d.Str(),
			fusion:      d.Str(),
			calibOracle: d.Str(),
		}
		rec.proxies = make([]string, d.Count(maxManifestList))
		for i := range rec.proxies {
			rec.proxies[i] = d.Str()
		}
		rec.n = d.Count(maxFileRecords)
		rec.colFile = d.Str()
		rec.colCRC = uint32(d.Uvarint())
		rec.colSize = int64(d.Uvarint())
		rec.segs = make([]segRec, d.Count(maxManifestList)) // 0 after an error
		for i := range rec.segs {
			rec.segs[i] = segRec{
				file:  d.Str(),
				base:  d.Count(maxFileRecords),
				count: d.Count(maxFileRecords),
				crc:   uint32(d.Uvarint()),
				size:  int64(d.Uvarint()),
			}
			if rtype == recIndexQ {
				// Legacy .qcv reference (file, crc, size): decoded for
				// framing, then dropped.
				d.Str()
				d.Uvarint()
				d.Uvarint()
			}
		}
		return recIndex, rec, d.Finish("manifest: index")
	case recDropTable:
		name := d.Str()
		return rtype, name, d.Finish("manifest: drop-table")
	case recDropIndex:
		k := ixKey{table: d.Str(), source: d.Str()}
		return rtype, k, d.Finish("manifest: drop-index")
	default:
		return 0, nil, fmt.Errorf("manifest: unknown record type %d", rtype)
	}
}

func encodeDataset(rec datasetRec) []byte {
	b := []byte{recDataset}
	b = durable.AppendString(b, rec.name)
	b = durable.AppendString(b, rec.file)
	b = binary.AppendUvarint(b, uint64(rec.records))
	b = binary.AppendUvarint(b, uint64(rec.crc))
	b = binary.AppendUvarint(b, uint64(rec.size))
	return b
}

func encodeIndex(rec indexRec) []byte {
	b := []byte{recIndex}
	b = durable.AppendString(b, rec.table)
	b = durable.AppendString(b, rec.source)
	b = durable.AppendString(b, rec.fusion)
	b = durable.AppendString(b, rec.calibOracle)
	b = binary.AppendUvarint(b, uint64(len(rec.proxies)))
	for _, p := range rec.proxies {
		b = durable.AppendString(b, p)
	}
	b = binary.AppendUvarint(b, uint64(rec.n))
	b = durable.AppendString(b, rec.colFile)
	b = binary.AppendUvarint(b, uint64(rec.colCRC))
	b = binary.AppendUvarint(b, uint64(rec.colSize))
	b = binary.AppendUvarint(b, uint64(len(rec.segs)))
	for _, s := range rec.segs {
		b = durable.AppendString(b, s.file)
		b = binary.AppendUvarint(b, uint64(s.base))
		b = binary.AppendUvarint(b, uint64(s.count))
		b = binary.AppendUvarint(b, uint64(s.crc))
		b = binary.AppendUvarint(b, uint64(s.size))
	}
	return b
}

func encodeDropTable(name string) []byte {
	return durable.AppendString([]byte{recDropTable}, name)
}

func encodeDropIndex(k ixKey) []byte {
	b := durable.AppendString([]byte{recDropIndex}, k.table)
	return durable.AppendString(b, k.source)
}

// openManifest replays dir/MANIFEST (creating it if absent) into the
// live catalog, truncating any torn tail, and returns the log positioned
// for appends. Catalog mutations are rare (registrations, flushes,
// invalidations), so every append is synced — a record present in the
// catalog is durable.
func openManifest(dir string) (*durable.Log, manifestState, error) {
	st := newManifestState()
	log, err := durable.Open(filepath.Join(dir, manifestName), manifestFormat, 1, st.applyFrame)
	if err != nil {
		return nil, manifestState{}, fmt.Errorf("storage: open manifest: %w", err)
	}
	return log, st, nil
}

// compactManifest rewrites the live catalog as a fresh log (see
// durable.Log.Rewrite). Deterministic record order (sorted names/keys)
// keeps compacted logs reproducible.
func compactManifest(log *durable.Log, st manifestState) error {
	err := log.Rewrite(func(write func([]byte) error) error {
		for _, name := range sortedTables(st.tables) {
			if err := write(encodeDataset(st.tables[name])); err != nil {
				return err
			}
		}
		for _, k := range sortedIndexKeys(st.indexes) {
			if err := write(encodeIndex(st.indexes[k])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	return nil
}

// sortedTables returns the catalog's table names in order.
func sortedTables(tables map[string]datasetRec) []string {
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sortedIndexKeys returns the catalog's index keys by (table, source).
func sortedIndexKeys(indexes map[ixKey]indexRec) []ixKey {
	keys := make([]ixKey, 0, len(indexes))
	for k := range indexes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].source < keys[j].source
	})
	return keys
}
