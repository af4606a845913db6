package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// testdata/parent.MANIFEST and testdata/parent-compacted.MANIFEST were
// written by the previous, hand-framed manifest implementation: the
// first by manifestScenario, the second by compacting its result.

// manifestScenario commits every record kind the manifest writes: two
// datasets, a plain and a calibrated index, and both drop tombstones.
func manifestScenario(t *testing.T, s *Store) {
	t.Helper()
	d := testDataset(t, 5, 40)
	ix := buildIndex(t, d, 16)
	if err := s.SaveDataset("t", d); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveIndex(IndexMeta{Table: "t", Source: "p", Fusion: "none", Proxies: []string{"p"}}, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	calib := IndexMeta{Table: "t", Source: "logistic(p,q)@o", Fusion: "logistic", CalibOracle: "o", Proxies: []string{"p", "q"}}
	if err := s.SaveIndex(calib, ix, s.Epoch("t")); err != nil {
		t.Fatal(err)
	}
	if err := s.DropIndex("t", "logistic(p,q)@o"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDataset("u", testDataset(t, 6, 24)); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("u"); err != nil {
		t.Fatal(err)
	}
}

func assertFileEquals(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from %s:\n got %x\nwant %x", path, golden, got, want)
	}
}

// TestManifestFramesByteIdentical: appends and a compaction write the
// manifest byte-for-byte as the previous implementation did.
func TestManifestFramesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	manifestScenario(t, s)
	path := filepath.Join(dir, manifestName)
	assertFileEquals(t, path, "testdata/parent.MANIFEST")
	if err := compactManifest(s.man, s.st); err != nil {
		t.Fatal(err)
	}
	assertFileEquals(t, path, "testdata/parent-compacted.MANIFEST")
	if got := s.man.Frames(); got != 2 {
		t.Fatalf("compacted manifest holds %d frames, want 2", got)
	}
}

// TestManifestParentFileReplays: a manifest written by the previous
// implementation replays to the same catalog the current code builds.
func TestManifestParentFileReplays(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Options{Dir: dir})
	manifestScenario(t, s)
	parent, err := os.ReadFile("testdata/parent.MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	st, frames, goodOff := replayManifest(t, parent)
	if frames != 6 || goodOff != int64(len(parent)) {
		t.Fatalf("replayed %d frames to offset %d, want 6 to %d", frames, goodOff, len(parent))
	}
	if len(st.tables) != 1 || len(st.indexes) != 1 ||
		st.tables["t"].file != s.st.tables["t"].file || st.tables["t"].crc != s.st.tables["t"].crc {
		t.Fatalf("parent catalog %+v, want %+v", st, s.st)
	}
	if got, want := encodeIndex(st.indexes[ixKey{"t", "p"}]), encodeIndex(s.st.indexes[ixKey{"t", "p"}]); !bytes.Equal(got, want) {
		t.Fatalf("parent index record %x, want %x", got, want)
	}
}
