package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"supg/internal/durable"
	"supg/internal/index"
)

// Compatibility tests for data directories written while the index
// could be quantized. Such a directory holds recIndexQ manifest records
// whose segment entries name .qcv code-vector files. The helpers below
// reproduce that format test-locally, since the store no longer writes
// it.

// legacyCodeEntry is the .qcv reference a recIndexQ segment entry adds.
type legacyCodeEntry struct {
	file string
	crc  uint32
	size int64
}

// encodeLegacyIndexQ encodes rec as a recIndexQ record: the recIndex
// layout with a (file, crc, size) code reference after each segment.
func encodeLegacyIndexQ(rec indexRec, codes []legacyCodeEntry) []byte {
	b := []byte{recIndexQ}
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
	for i, s := range rec.segs {
		b = durable.AppendString(b, s.file)
		b = binary.AppendUvarint(b, uint64(s.base))
		b = binary.AppendUvarint(b, uint64(s.count))
		b = binary.AppendUvarint(b, uint64(s.crc))
		b = binary.AppendUvarint(b, uint64(s.size))
		b = durable.AppendString(b, codes[i].file)
		b = binary.AppendUvarint(b, uint64(codes[i].crc))
		b = binary.AppendUvarint(b, uint64(codes[i].size))
	}
	return b
}

// legacyCodeFile renders a .qcv file for one segment: a 40-byte header
// ("SUPGQCV1", u32 version, u32 pad, u64 base, u64 count, u64
// reserved), then the record-order and sorted-order 16-bit codes
// floor(score·65536), each section zero-padded to a multiple of 8.
func legacyCodeFile(sd index.SegmentData, column []float64) []byte {
	n := len(sd.Perm)
	section := (2*n + 7) &^ 7
	b := make([]byte, 40+2*section)
	copy(b, "SUPGQCV1")
	binary.LittleEndian.PutUint32(b[8:], formatVersion)
	binary.LittleEndian.PutUint64(b[16:], uint64(sd.Base))
	binary.LittleEndian.PutUint64(b[24:], uint64(n))
	code := func(s float64) uint16 { return uint16(min(uint32(s*65536), 65535)) }
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(b[40+2*i:], code(column[sd.Base+i]))
		binary.LittleEndian.PutUint16(b[40+section+2*i:], code(sd.Sorted[i]))
	}
	return b
}

// seedLegacyCodeStore persists one table and one index into dir,
// then rewrites the directory into the quantized layout: a .qcv file
// per segment and a MANIFEST whose index record is recIndexQ.
func seedLegacyCodeStore(t *testing.T, dir string, segSize int) *index.ScoreIndex {
	t.Helper()
	d := testDataset(t, 3, 5000)
	ix := buildIndex(t, d, segSize)
	s := openStore(t, Options{Dir: dir})
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	tbl := s.st.tables["t"]
	rec := s.st.indexes[ixKey{"t", "p"}]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	codes := make([]legacyCodeEntry, len(rec.segs))
	for i := range rec.segs {
		data := legacyCodeFile(ix.SegmentView(i), ix.Scores())
		codes[i] = legacyCodeEntry{
			file: fmt.Sprintf("%06d.qcv", 900+i),
			crc:  crc32.Checksum(data, durable.Castagnoli),
			size: int64(len(data)),
		}
		if err := os.WriteFile(filepath.Join(dir, codes[i].file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	man := append(frame(encodeDataset(tbl)), frame(encodeLegacyIndexQ(rec, codes))...)
	if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	return ix
}

// manifestRecordTypes lists the record-type byte of every whole frame
// in a manifest file.
func manifestRecordTypes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var types []byte
	for len(data) >= 8 {
		n := int(binary.LittleEndian.Uint32(data))
		if n == 0 || 8+n > len(data) {
			break
		}
		types = append(types, data[8])
		data = data[8+n:]
	}
	return types
}

func qcvFiles(t *testing.T, dir string) []string {
	t.Helper()
	got, err := filepath.Glob(filepath.Join(dir, "*.qcv"))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestLegacyCodeFilesRecovery: a directory holding a recIndexQ
// record and its .qcv files boots with zero permutation sorts, serves
// the float segments bit-identically, never reads the code files (one
// is corrupted and nothing degrades), and deletes them at boot — on
// both the mmap and the heap-decode path.
func TestLegacyCodeFilesRecovery(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMmap=%v", noMmap), func(t *testing.T) {
			dir := t.TempDir()
			ix := seedLegacyCodeStore(t, dir, 700)
			if got := qcvFiles(t, dir); len(got) != ix.Segments() {
				t.Fatalf("%d .qcv files seeded, want one per segment (%d)", len(got), ix.Segments())
			}
			corruptFile(t, findFile(t, dir, ".qcv"), false)

			sortsBefore := index.BuildSortsTotal()
			s := openStore(t, Options{Dir: dir, NoMmap: noMmap})
			if got := index.BuildSortsTotal() - sortsBefore; got != 0 {
				t.Fatalf("recovery performed %d permutation sorts, want 0", got)
			}
			st := s.Stats()
			if st.TablesRecovered != 1 || st.IndexesRecovered != 1 || len(st.Degraded) != 0 {
				t.Fatalf("recovery stats: %+v", st)
			}
			assertIndexEquivalent(t, ix, s.RecoveredIndexes()[0].Index)
			if left := qcvFiles(t, dir); len(left) != 0 {
				t.Fatalf("%d .qcv files survived boot: %v", len(left), left)
			}
		})
	}
}

// TestLegacyIndexRecordRewrittenPlain: the first flush over a
// recovered quantized record reuses every .seg file and commits a plain
// recIndex record; a compaction of that catalog writes no recIndexQ
// record either, and the directory still boots to the same index.
func TestLegacyIndexRecordRewrittenPlain(t *testing.T) {
	dir := t.TempDir()
	ix := seedLegacyCodeStore(t, dir, 500)
	if types := manifestRecordTypes(t, dir); len(types) != 2 || types[1] != recIndexQ {
		t.Fatalf("seeded manifest record types %v, want [dataset recIndexQ]", types)
	}

	s := openStore(t, Options{Dir: dir})
	before := s.st.indexes[ixKey{"t", "p"}]
	meta := IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}
	if err := s.SaveIndex(meta, s.RecoveredIndexes()[0].Index, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	if s.segmentsPersisted != 0 {
		t.Fatalf("flush rewrote %d unchanged segment files", s.segmentsPersisted)
	}
	after := s.st.indexes[ixKey{"t", "p"}]
	for i, sr := range after.segs {
		if sr != before.segs[i] {
			t.Fatalf("segment %d changed across the flush: %+v -> %+v", i, before.segs[i], sr)
		}
	}
	types := manifestRecordTypes(t, dir)
	if last := types[len(types)-1]; last != recIndex {
		t.Fatalf("flush appended record type %d, want recIndex (%d)", last, recIndex)
	}

	if err := compactManifest(s.man, s.st); err != nil {
		t.Fatal(err)
	}
	for i, rt := range manifestRecordTypes(t, dir) {
		if rt == recIndexQ {
			t.Fatalf("compacted manifest frame %d is still recIndexQ", i)
		}
	}
	s.Close()

	s2 := openStore(t, Options{Dir: dir})
	if st := s2.Stats(); st.IndexesRecovered != 1 || len(st.Degraded) != 0 {
		t.Fatalf("reboot after compaction: %+v", st)
	}
	assertIndexEquivalent(t, ix, s2.RecoveredIndexes()[0].Index)
}

// TestLegacyIndexRecordDecodesPlain: a recIndexQ record decodes to
// the plain index record with its code references dropped, and
// re-encodes as recIndex, byte-identical to encoding that plain record
// directly.
func TestLegacyIndexRecordDecodesPlain(t *testing.T) {
	plain := indexRec{
		table: "t", source: "q", fusion: "none", proxies: []string{"q"},
		n: 9, colFile: "000003.col", colCRC: 8, colSize: 104,
		segs: []segRec{
			{file: "000004.seg", base: 0, count: 5, crc: 3, size: 120},
			{file: "000006.seg", base: 5, count: 4, crc: 4, size: 104},
		},
	}
	legacy := encodeLegacyIndexQ(plain, []legacyCodeEntry{
		{file: "000005.qcv", crc: 5, size: 64},
		{file: "000007.qcv", crc: 6, size: 56},
	})
	rtype, got, err := decodeRecord(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if rtype != recIndex {
		t.Fatalf("recIndexQ decoded as record type %d, want recIndex (%d)", rtype, recIndex)
	}
	want := encodeIndex(plain)
	if again := encodeIndex(got.(indexRec)); string(again) != string(want) {
		t.Fatalf("re-encoded record %x, want %x", again, want)
	}
	if _, _, err := decodeRecord(legacy[:len(legacy)-1]); err == nil {
		t.Fatal("truncated recIndexQ record decoded without error")
	}
}
