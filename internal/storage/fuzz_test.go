package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"supg/internal/dataset"
	"supg/internal/durable"
	"supg/internal/index"
	"supg/internal/randx"
)

// Native fuzz targets for the on-disk parsers. These parsers consume
// bytes a crash (or an attacker with filesystem access) may have
// mangled arbitrarily, so the contract under fuzzing is: any input
// produces either a structurally-valid view or an error — never a
// panic, never a view whose sections disagree with its declared
// counts, and for the manifest never a replay that reads past the
// reported good offset.

// frame wraps a payload in the manifest's [len][crc][payload] framing.
func frame(payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, durable.Castagnoli))
	copy(b[8:], payload)
	return b
}

// validManifest returns a well-formed multi-record log for the corpus.
func validManifest() []byte {
	var b []byte
	b = append(b, frame(encodeDataset(datasetRec{name: "t", file: "000001.ds", records: 10, crc: 7, size: 100}))...)
	b = append(b, frame(encodeIndex(indexRec{
		table: "t", source: "p", fusion: "none", proxies: []string{"p"},
		n: 10, colFile: "000002.col", colCRC: 8, colSize: 112,
		segs: []segRec{{file: "000003.seg", base: 0, count: 10, crc: 9, size: 200}},
	}))...)
	b = append(b, frame(encodeDropIndex(ixKey{"t", "p"}))...)
	b = append(b, frame(encodeDropTable("t"))...)
	return b
}

func FuzzManifestReplay(f *testing.F) {
	f.Add(validManifest())
	f.Add(frame(encodeDropTable("t")))
	f.Add(validManifest()[:13])                   // torn mid-frame
	f.Add([]byte{})                               // empty log
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})         // zero-length frame
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3, 4}) // absurd length
	corrupt := validManifest()
	corrupt[9] ^= 0xFF // payload bit flip -> CRC mismatch
	f.Add(corrupt)
	// Legacy quantized-index record (recIndexQ): must keep replaying.
	f.Add(frame(encodeLegacyIndexQ(indexRec{
		table: "t", source: "p", fusion: "none", proxies: []string{"p"},
		n: 10, colFile: "000002.col", colCRC: 8, colSize: 112,
		segs: []segRec{{file: "000003.seg", base: 0, count: 10, crc: 9, size: 200}},
	}, []legacyCodeEntry{{file: "000004.qcv", crc: 5, size: 80}})))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, frames, goodOff := replayManifest(t, data)
		if goodOff < 0 || goodOff > int64(len(data)) {
			t.Fatalf("goodOff %d outside [0, %d]", goodOff, len(data))
		}
		// Replaying the good prefix alone must reproduce the fold exactly
		// (this is what Open commits to after truncating the tail).
		st2, frames2, off2 := replayManifest(t, data[:goodOff])
		if off2 != goodOff || frames2 != frames ||
			len(st2.tables) != len(st.tables) || len(st2.indexes) != len(st.indexes) {
			t.Fatalf("replay of the good prefix diverged: %d/%d frames, off %d/%d",
				frames2, frames, off2, goodOff)
		}
		// Every surviving catalog file name must be safe to join.
		for _, rec := range st.tables {
			if err := checkFileName(rec.file); err == nil != (rec.file != "" && !containsSep(rec.file)) {
				t.Fatalf("file name check inconsistent for %q", rec.file)
			}
		}
	})
}

// replayManifest folds manifest bytes into a catalog exactly as
// openManifest does, returning the frames applied and the offset just
// past the last of them.
func replayManifest(t *testing.T, data []byte) (manifestState, int64, int64) {
	st := newManifestState()
	frames, goodOff, err := durable.Replay(bytes.NewReader(data), manifestFormat, st.applyFrame)
	if err != nil {
		t.Fatalf("in-memory replay: %v", err)
	}
	return st, frames, goodOff
}

func containsSep(s string) bool {
	for _, c := range s {
		if c == '/' || c == '\\' {
			return true
		}
	}
	return s == "." || s == ".."
}

// validColumn/validSegment/validDS produce well-formed files via the
// production writers (routed through a temp dir).
func validColumn(f *testing.F) []byte {
	dir := f.TempDir()
	path := dir + "/c.col"
	if _, _, err := writeColumnFile(path, []float64{0.25, 0.5, 1}); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func validSegment(f *testing.F) []byte {
	dir := f.TempDir()
	path := dir + "/s.seg"
	sd := index.SegmentData{Base: 0, Perm: []int{0, 2, 1}, Sorted: []float64{0.1, 0.2, 0.9}}
	if _, _, err := writeSegmentFile(path, sd); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func validDS(f *testing.F) []byte {
	dir := f.TempDir()
	path := dir + "/d.ds"
	d := dataset.Beta(randx.New(2), 20, 0.5, 1)
	if _, _, err := writeDatasetFile(path, d); err != nil {
		f.Fatal(err)
	}
	return readAll(f, path)
}

func readAll(f *testing.F, path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func FuzzColumnFile(f *testing.F) {
	valid := validColumn(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated body
	f.Add(valid[:colHeaderSize])
	lying := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lying[16:], 1<<40) // count lies
	f.Add(lying)
	f.Add([]byte("SUPGCOL1 but far too short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := parseColumnFile(data)
		if err != nil {
			return
		}
		if cf.count <= 0 || len(cf.scores) != 8*cf.count {
			t.Fatalf("accepted view disagrees with count: %d scores bytes for count %d", len(cf.scores), cf.count)
		}
	})
}

func FuzzSegmentFile(f *testing.F) {
	valid := validSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:segHeaderSize])
	swapped := append([]byte{}, valid...)
	copy(swapped[:8], colMagic[:]) // wrong magic
	f.Add(swapped)
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := parseSegmentFile(data)
		if err != nil {
			return
		}
		if sf.count <= 0 || sf.base < 0 ||
			len(sf.perm) != 8*sf.count || len(sf.sorted) != 8*sf.count {
			t.Fatalf("accepted view disagrees with header: base %d count %d perm %d sorted %d",
				sf.base, sf.count, len(sf.perm), len(sf.sorted))
		}
	})
}

func FuzzDatasetFile(f *testing.F) {
	valid := validDS(f)
	f.Add(valid)
	f.Add(valid[:15]) // shorter than the header
	f.Add(valid[:len(valid)-1])
	lying := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(lying[8:], 1<<50)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		df, err := parseDatasetFile(data)
		if err != nil {
			return
		}
		if df.count <= 0 || len(df.scores) != 8*df.count || len(df.labelBits) != (df.count+7)/8 {
			t.Fatalf("accepted view disagrees with count %d: %d score bytes, %d label bytes",
				df.count, len(df.scores), len(df.labelBits))
		}
	})
}
