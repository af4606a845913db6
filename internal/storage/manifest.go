package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// The MANIFEST is an append-only log of catalog records, using the same
// frame discipline as the label store's WAL: each record is
//
//	[4B LE payload length][4B LE CRC32(Castagnoli) of payload][payload]
//
// with payload[0] a record-type byte. A torn or corrupt tail — short
// frame, bad CRC, or a well-framed payload that fails to decode — marks
// the end of the usable log: everything before it is applied, the tail
// is truncated on open. Replay folds records last-wins into the live
// catalog:
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
// by rewriting live records to MANIFEST.compact and renaming over.

const (
	recDataset   byte = 1
	recIndex     byte = 2
	recDropTable byte = 3
	recDropIndex byte = 4
	recIndexQ    byte = 5

	manifestName = "MANIFEST"

	// manMaxFrame bounds a single record (an index record lists every
	// segment file name; 8 MiB covers ~10^5 segments).
	manMaxFrame = 8 << 20

	// maxManifestList bounds decoded list lengths (segments, proxies).
	maxManifestList = 1 << 20

	// compactMinFrames: don't bother compacting tiny logs.
	compactMinFrames = 64
)

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
	frames  int64 // frames applied (live + dead)
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

// replayManifest folds the manifest bytes into the live catalog. It
// never fails: corruption at offset X means the log is valid up to the
// last whole, decodable frame before X, and goodOff reports where that
// prefix ends so the caller can truncate the tail.
func replayManifest(data []byte) (manifestState, int64) {
	st := newManifestState()
	off := int64(0)
	for int64(len(data))-off >= 8 {
		length := binary.LittleEndian.Uint32(data[off:])
		if length == 0 || length > manMaxFrame {
			break
		}
		end := off + 8 + int64(length)
		if end > int64(len(data)) {
			break
		}
		payload := data[off+8 : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		rtype, rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		st.apply(rtype, rec)
		st.frames++
		off = end
	}
	return st, off
}

// decodeRecord parses one frame payload into its typed record.
func decodeRecord(payload []byte) (byte, any, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("manifest: empty record")
	}
	d := decoder{b: payload[1:]}
	switch rtype := payload[0]; rtype {
	case recDataset:
		rec := datasetRec{
			name:    d.str(),
			file:    d.str(),
			records: d.count(maxFileRecords),
			crc:     uint32(d.uvarint()),
			size:    int64(d.uvarint()),
		}
		return rtype, rec, d.finish("dataset")
	case recIndex, recIndexQ:
		rec := indexRec{
			table:       d.str(),
			source:      d.str(),
			fusion:      d.str(),
			calibOracle: d.str(),
		}
		rec.proxies = make([]string, d.count(maxManifestList))
		for i := range rec.proxies {
			rec.proxies[i] = d.str()
		}
		rec.n = d.count(maxFileRecords)
		rec.colFile = d.str()
		rec.colCRC = uint32(d.uvarint())
		rec.colSize = int64(d.uvarint())
		nsegs := d.count(maxManifestList)
		if d.err != nil {
			return 0, nil, d.finish("index")
		}
		rec.segs = make([]segRec, nsegs)
		for i := range rec.segs {
			rec.segs[i] = segRec{
				file:  d.str(),
				base:  d.count(maxFileRecords),
				count: d.count(maxFileRecords),
				crc:   uint32(d.uvarint()),
				size:  int64(d.uvarint()),
			}
			if rtype == recIndexQ {
				// Legacy .qcv reference (file, crc, size): decoded for
				// framing, then dropped.
				d.str()
				d.uvarint()
				d.uvarint()
			}
		}
		return recIndex, rec, d.finish("index")
	case recDropTable:
		name := d.str()
		return rtype, name, d.finish("drop-table")
	case recDropIndex:
		k := ixKey{table: d.str(), source: d.str()}
		return rtype, k, d.finish("drop-index")
	default:
		return 0, nil, fmt.Errorf("manifest: unknown record type %d", rtype)
	}
}

func encodeDataset(rec datasetRec) []byte {
	b := []byte{recDataset}
	b = appendString(b, rec.name)
	b = appendString(b, rec.file)
	b = binary.AppendUvarint(b, uint64(rec.records))
	b = binary.AppendUvarint(b, uint64(rec.crc))
	b = binary.AppendUvarint(b, uint64(rec.size))
	return b
}

func encodeIndex(rec indexRec) []byte {
	b := []byte{recIndex}
	b = appendString(b, rec.table)
	b = appendString(b, rec.source)
	b = appendString(b, rec.fusion)
	b = appendString(b, rec.calibOracle)
	b = binary.AppendUvarint(b, uint64(len(rec.proxies)))
	for _, p := range rec.proxies {
		b = appendString(b, p)
	}
	b = binary.AppendUvarint(b, uint64(rec.n))
	b = appendString(b, rec.colFile)
	b = binary.AppendUvarint(b, uint64(rec.colCRC))
	b = binary.AppendUvarint(b, uint64(rec.colSize))
	b = binary.AppendUvarint(b, uint64(len(rec.segs)))
	for _, s := range rec.segs {
		b = appendString(b, s.file)
		b = binary.AppendUvarint(b, uint64(s.base))
		b = binary.AppendUvarint(b, uint64(s.count))
		b = binary.AppendUvarint(b, uint64(s.crc))
		b = binary.AppendUvarint(b, uint64(s.size))
	}
	return b
}

func encodeDropTable(name string) []byte {
	return appendString([]byte{recDropTable}, name)
}

func encodeDropIndex(k ixKey) []byte {
	b := appendString([]byte{recDropIndex}, k.table)
	return appendString(b, k.source)
}

// decoder is a cursor over a record payload; the first error sticks and
// poisons all later reads (which return zero values).
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a uvarint bounded by limit, for counts used to size
// allocations or index files.
func (d *decoder) count(limit uint64) int {
	v := d.uvarint()
	if d.err == nil && v > limit {
		d.err = fmt.Errorf("count %d exceeds limit %d", v, limit)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// finish requires the payload to be fully consumed with no error.
func (d *decoder) finish(kind string) error {
	if d.err != nil {
		return fmt.Errorf("manifest: %s record: %w", kind, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("manifest: %s record: %d trailing bytes", kind, len(d.b))
	}
	return nil
}

// manifest is the open append handle on the MANIFEST file.
type manifest struct {
	path   string
	f      *os.File
	frames int64 // frames currently in the file
}

// openManifest replays dir/MANIFEST (creating it if absent), truncates
// any torn tail, and returns an append handle plus the live catalog.
func openManifest(dir string) (*manifest, manifestState, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, manifestState{}, fmt.Errorf("storage: read manifest: %w", err)
	}
	st, goodOff := replayManifest(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) //supg:atomiccommit-ok the manifest log is the commit path: records are CRC-framed, fsynced per append, and replay stops at the first torn record
	if err != nil {
		return nil, manifestState{}, fmt.Errorf("storage: open manifest: %w", err)
	}
	if goodOff < int64(len(data)) {
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, manifestState{}, fmt.Errorf("storage: truncate torn manifest tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, manifestState{}, fmt.Errorf("storage: sync manifest: %w", err)
		}
	}
	if _, err := f.Seek(goodOff, 0); err != nil {
		f.Close()
		return nil, manifestState{}, fmt.Errorf("storage: seek manifest: %w", err)
	}
	return &manifest{path: path, f: f, frames: st.frames}, st, nil
}

// appendRecord frames, writes, and fsyncs one record payload. Catalog
// mutations are rare (registrations, flushes, invalidations), so every
// append is synced — a record present in the catalog is durable.
func (m *manifest) appendRecord(payload []byte) error {
	if len(payload) == 0 || len(payload) > manMaxFrame {
		return fmt.Errorf("storage: manifest record of %d bytes", len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	if _, err := m.f.Write(frame); err != nil {
		return fmt.Errorf("storage: append manifest record: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync manifest: %w", err)
	}
	m.frames++
	return nil
}

// shouldCompact reports whether dead records dominate the log.
func (m *manifest) shouldCompact(live int64) bool {
	return m.frames >= compactMinFrames && m.frames > 2*live
}

// compact rewrites the live catalog to a fresh log and atomically
// renames it over the old one. Deterministic record order (sorted
// names/keys) keeps compacted logs reproducible.
func (m *manifest) compact(st manifestState) error {
	tmp := m.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644) //supg:atomiccommit-ok compaction's tmp log; fsynced below, then renamed over the manifest
	if err != nil {
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	var buf []byte
	appendFrame := func(payload []byte) {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	names := make([]string, 0, len(st.tables))
	for name := range st.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		appendFrame(encodeDataset(st.tables[name]))
	}
	keys := make([]ixKey, 0, len(st.indexes))
	for k := range st.indexes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].source < keys[j].source
	})
	for _, k := range keys {
		appendFrame(encodeIndex(st.indexes[k]))
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	if err := os.Rename(tmp, m.path); err != nil { //supg:atomiccommit-ok this IS the compaction commit point: tmp was fsynced above and the directory is synced after
		os.Remove(tmp)
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	if err := syncDir(filepath.Dir(m.path)); err != nil {
		return fmt.Errorf("storage: compact manifest: %w", err)
	}
	old := m.f
	nf, err := os.OpenFile(m.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: reopen compacted manifest: %w", err)
	}
	if _, err := nf.Seek(0, 2); err != nil {
		nf.Close()
		return fmt.Errorf("storage: reopen compacted manifest: %w", err)
	}
	old.Close()
	m.f = nf
	m.frames = st.live()
	return nil
}

func (m *manifest) Close() error { return m.f.Close() }

// appendString appends a uvarint length prefix followed by the bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
