package engine

import (
	"os"
	"path/filepath"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

// testdata/legacy-quantized is a persist directory written by an engine
// that still offered a quantized index: seed 7, 512-record segments,
// quantization on, legacyCodeDataset registered as table t, and one
// persistTestSQL query. Its MANIFEST holds a recIndexQ record naming
// one .qcv code file per segment.

func legacyCodeDataset() *dataset.Dataset {
	return dataset.Beta(randx.New(31), 1500, 0.5, 2)
}

// copyLegacyCodeDir copies the fixture into a fresh directory, since
// booting it deletes the code files.
func copyLegacyCodeDir(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "legacy-quantized")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRestartLegacyCodeFilesZeroRescanRecovery boots a persist directory
// written with a quantized index: the index is recovered from its float
// segments with zero proxy UDF calls and zero permutation sorts,
// answers byte-identically to a freshly built index, and the .qcv files
// are gone after boot.
func TestRestartLegacyCodeFilesZeroRescanRecovery(t *testing.T) {
	dir := copyLegacyCodeDir(t)
	if qcvs, _ := filepath.Glob(filepath.Join(dir, "*.qcv")); len(qcvs) != 3 {
		t.Fatalf("fixture holds %d .qcv files, want 3", len(qcvs))
	}
	const ptSQL = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 300 USING p(x) PRECISION TARGET 80% WITH PROBABILITY 95%`

	sqls := []string{persistTestSQL, ptSQL}
	var freshCalls int
	fresh := persistEngine(t, t.TempDir(), legacyCodeDataset(), &freshCalls)
	want := make([]*QueryResult, len(sqls))
	for i, sql := range sqls {
		res, err := fresh.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var calls int
	sortsBefore := index.BuildSortsTotal()
	e := persistEngine(t, dir, legacyCodeDataset(), &calls)
	info, ok := e.RecoveryInfo()
	if !ok || info.Tables != 1 || info.Indexes != 1 || info.Segments != 3 || len(info.Degraded) != 0 {
		t.Fatalf("recovery info = %+v, %v", info, ok)
	}
	if qcvs, _ := filepath.Glob(filepath.Join(dir, "*.qcv")); len(qcvs) != 0 {
		t.Fatalf(".qcv files survived boot: %v", qcvs)
	}
	for i, sql := range sqls {
		got, err := e.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (!got.IndexRecovered || got.IndexBuilt) {
			t.Fatalf("first query: IndexRecovered=%v IndexBuilt=%v", got.IndexRecovered, got.IndexBuilt)
		}
		assertSameResult(t, want[i], got)
	}
	if calls != 0 {
		t.Fatalf("restarted engine invoked the proxy UDF %d times, want 0", calls)
	}
	if sorts := index.BuildSortsTotal() - sortsBefore; sorts != 0 {
		t.Fatalf("restarted engine performed %d permutation sorts, want 0", sorts)
	}
}
