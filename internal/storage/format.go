package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"supg/internal/dataset"
	"supg/internal/durable"
	"supg/internal/index"
)

// On-disk file formats. Three write-once file kinds live next to the
// MANIFEST log, all little-endian, all with every section starting at a
// multiple of 8 bytes so page-aligned mappings can alias float64/uint64
// words directly:
//
//	dataset (.ds)  — the dataset binary interchange format verbatim
//	                 (magic "SUPGDS1\n" + count + scores + label bits);
//	                 scores start at offset 16, already 8-aligned.
//	column  (.col) — "SUPGCOL1" magic, u32 version, u32 pad, u64 count,
//	                 u64 reserved (32-byte header), then count float64
//	                 proxy scores: the contiguous score column an index
//	                 was built over (post-fusion, -0 normalized).
//	segment (.seg) — "SUPGSEG1" magic, u32 version, u32 pad, u64 base,
//	                 u64 count, u64 reserved (40-byte header), then the
//	                 permutation (count u64 local ids) and the sorted
//	                 scores (count float64).
//
// Older data directories may also hold .qcv files: 16-bit score-code
// siblings of .seg files, written by a since-removed quantized index.
// Nothing reads them; replay drops their manifest references and the
// boot-time orphan sweep deletes them.
//
// None of the files embed their own checksum: the CRC32 (Castagnoli)
// and exact byte size of each file are recorded in the manifest entry
// that references it, so a file and its integrity metadata commit
// atomically and a truncated or bit-flipped file is detected before
// any of its bytes are trusted. Parsers here do structural validation
// only (magic, version, counts, exact length); semantic validation of
// segment contents is index.FromExternal's O(n) proof.

const (
	formatVersion = 1

	colHeaderSize = 32
	segHeaderSize = 40

	// maxFileRecords caps declared counts, mirroring dataset.maxRecords.
	maxFileRecords = 1 << 33
)

var (
	colMagic = [8]byte{'S', 'U', 'P', 'G', 'C', 'O', 'L', '1'}
	segMagic = [8]byte{'S', 'U', 'P', 'G', 'S', 'E', 'G', '1'}
)

// columnFile is the parsed structural view of a .col file.
type columnFile struct {
	count  int
	scores []byte // count*8 bytes of little-endian float64
}

func parseColumnFile(data []byte) (columnFile, error) {
	if len(data) < colHeaderSize {
		return columnFile{}, fmt.Errorf("column file: %d bytes, shorter than the %d-byte header", len(data), colHeaderSize)
	}
	if [8]byte(data[:8]) != colMagic {
		return columnFile{}, fmt.Errorf("column file: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return columnFile{}, fmt.Errorf("column file: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(data[16:])
	if count == 0 || count > maxFileRecords {
		return columnFile{}, fmt.Errorf("column file: implausible score count %d", count)
	}
	if want := colHeaderSize + 8*int64(count); int64(len(data)) != want {
		return columnFile{}, fmt.Errorf("column file: %d bytes, want %d for %d scores", len(data), want, count)
	}
	return columnFile{count: int(count), scores: data[colHeaderSize:]}, nil
}

// segmentFile is the parsed structural view of a .seg file.
type segmentFile struct {
	base   int
	count  int
	perm   []byte // count*8 bytes of little-endian uint64 local ids
	sorted []byte // count*8 bytes of little-endian float64
}

func parseSegmentFile(data []byte) (segmentFile, error) {
	if len(data) < segHeaderSize {
		return segmentFile{}, fmt.Errorf("segment file: %d bytes, shorter than the %d-byte header", len(data), segHeaderSize)
	}
	if [8]byte(data[:8]) != segMagic {
		return segmentFile{}, fmt.Errorf("segment file: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return segmentFile{}, fmt.Errorf("segment file: unsupported version %d", v)
	}
	base := binary.LittleEndian.Uint64(data[16:])
	count := binary.LittleEndian.Uint64(data[24:])
	if count == 0 || count > maxFileRecords || base > maxFileRecords {
		return segmentFile{}, fmt.Errorf("segment file: implausible base %d / count %d", base, count)
	}
	if want := segHeaderSize + 16*int64(count); int64(len(data)) != want {
		return segmentFile{}, fmt.Errorf("segment file: %d bytes, want %d for %d entries", len(data), want, count)
	}
	permEnd := segHeaderSize + 8*int(count)
	return segmentFile{
		base:   int(base),
		count:  int(count),
		perm:   data[segHeaderSize:permEnd],
		sorted: data[permEnd:],
	}, nil
}

// datasetFile is the parsed structural view of a .ds file (the dataset
// binary interchange format: magic "SUPGDS1\n", u64 count, scores,
// LSB-first label bits).
type datasetFile struct {
	count     int
	scores    []byte // count*8 bytes of little-endian float64
	labelBits []byte // ceil(count/8) bytes
}

var dsMagic = [8]byte{'S', 'U', 'P', 'G', 'D', 'S', '1', '\n'}

func parseDatasetFile(data []byte) (datasetFile, error) {
	if len(data) < 16 {
		return datasetFile{}, fmt.Errorf("dataset file: %d bytes, shorter than the 16-byte header", len(data))
	}
	if [8]byte(data[:8]) != dsMagic {
		return datasetFile{}, fmt.Errorf("dataset file: bad magic %q", data[:8])
	}
	count := binary.LittleEndian.Uint64(data[8:])
	if count == 0 || count > maxFileRecords {
		return datasetFile{}, fmt.Errorf("dataset file: implausible record count %d", count)
	}
	n := int(count)
	if want := dataset.BinarySize(n); int64(len(data)) != want {
		return datasetFile{}, fmt.Errorf("dataset file: %d bytes, want %d for %d records", len(data), want, count)
	}
	scoresEnd := 16 + 8*n
	return datasetFile{
		count:     n,
		scores:    data[16:scoresEnd],
		labelBits: data[scoresEnd:],
	}, nil
}

// decodeLabelBits expands LSB-first label bits into a []bool column.
func decodeLabelBits(bits []byte, n int) []bool {
	labels := make([]bool, n)
	for i := range labels {
		labels[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return labels
}

// decodeFloat64s is the portable (copying) alternative to aliasFloat64s.
func decodeFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// decodeInts is the portable (copying) alternative to aliasInts.
// Out-of-range values become negative ints, rejected downstream by
// index.FromExternal's bounds checks just like aliased ones.
func decodeInts(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// writeDatasetFile persists d in the dataset binary interchange format.
func writeDatasetFile(path string, d *dataset.Dataset) (crc uint32, size int64, err error) {
	aw, err := durable.NewAtomicWriter(path)
	if err != nil {
		return 0, 0, err
	}
	if err := dataset.WriteBinary(aw, d); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	return aw.Commit()
}

// writeColumnFile persists an index's contiguous score column.
func writeColumnFile(path string, scores []float64) (crc uint32, size int64, err error) {
	aw, err := durable.NewAtomicWriter(path)
	if err != nil {
		return 0, 0, err
	}
	var hdr [colHeaderSize]byte
	copy(hdr[:8], colMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(scores)))
	if _, err := aw.Write(hdr[:]); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	if err := writeFloat64s(aw, scores); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	return aw.Commit()
}

// writeSegmentFile persists one immutable segment view: its base, the
// sorting permutation, and the sorted scores.
func writeSegmentFile(path string, sd index.SegmentData) (crc uint32, size int64, err error) {
	aw, err := durable.NewAtomicWriter(path)
	if err != nil {
		return 0, 0, err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(sd.Base))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(sd.Perm)))
	if _, err := aw.Write(hdr[:]); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	if err := writeInts(aw, sd.Perm); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	if err := writeFloat64s(aw, sd.Sorted); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	return aw.Commit()
}

// encodeChunk is the scratch granularity for bulk encoding (64 KiB).
const encodeChunk = 1 << 13

func writeFloat64s(w io.Writer, vals []float64) error {
	buf := make([]byte, 8*min(len(vals), encodeChunk))
	for len(vals) > 0 {
		n := min(len(vals), encodeChunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeInts(w io.Writer, vals []int) error {
	buf := make([]byte, 8*min(len(vals), encodeChunk))
	for len(vals) > 0 {
		n := min(len(vals), encodeChunk)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}
