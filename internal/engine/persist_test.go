package engine

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/randx"
)

const persistTestSQL = `SELECT * FROM t WHERE o(x) ORACLE LIMIT 500 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`

// persistEngine opens an engine over dir with a counting proxy
// registered for dataset d.
func persistEngine(t *testing.T, dir string, d *dataset.Dataset, proxyCalls *int) *Engine {
	t.Helper()
	e, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.RegisterTable("t", d)
	e.RegisterOracle("o", func(i int) (bool, error) { return d.TrueLabel(i), nil })
	var mu sync.Mutex
	e.RegisterProxy("p", func(i int) float64 {
		mu.Lock()
		*proxyCalls++
		mu.Unlock()
		return d.Score(i)
	})
	return e
}

func assertSameResult(t *testing.T, want, got *QueryResult) {
	t.Helper()
	if got.Tau != want.Tau {
		t.Fatalf("tau %v, want %v", got.Tau, want.Tau)
	}
	if got.OracleCalls != want.OracleCalls {
		t.Fatalf("oracle calls %d, want %d", got.OracleCalls, want.OracleCalls)
	}
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("%d records, want %d", len(got.Indices), len(want.Indices))
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("record %d: %d, want %d", i, got.Indices[i], want.Indices[i])
		}
	}
}

// TestEngineRestartZeroRescanRecovery is the engine-level acceptance
// test for the durable storage tier: after a kill-and-restart, the
// first query adopts the persisted index with ZERO proxy UDF calls and
// ZERO permutation sorts, and answers byte-identically.
func TestEngineRestartZeroRescanRecovery(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(31), 20000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d, &calls1)
	cold, err := e1.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.IndexBuilt || calls1 != d.Len() {
		t.Fatalf("cold query: IndexBuilt=%v proxy calls=%d", cold.IndexBuilt, calls1)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: register identical CONTENT under a different pointer, so
	// adoption goes through the CRC match, as it would across processes.
	var calls2 int
	sortsBefore := index.BuildSortsTotal()
	e2 := persistEngine(t, dir, d.Clone(), &calls2)
	info, ok := e2.RecoveryInfo()
	if !ok || info.Tables != 1 || info.Indexes != 1 {
		t.Fatalf("recovery info = %+v, %v", info, ok)
	}
	if len(info.Degraded) != 0 {
		t.Fatalf("recovery degraded: %v", info.Degraded)
	}
	warm, err := e2.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if calls2 != 0 {
		t.Fatalf("restarted engine invoked the proxy UDF %d times, want 0", calls2)
	}
	if sorts := index.BuildSortsTotal() - sortsBefore; sorts != 0 {
		t.Fatalf("restarted engine performed %d permutation sorts, want 0", sorts)
	}
	if !warm.IndexRecovered || warm.IndexBuilt || warm.ProxyCalls != 0 {
		t.Fatalf("warm query: IndexRecovered=%v IndexBuilt=%v ProxyCalls=%d",
			warm.IndexRecovered, warm.IndexBuilt, warm.ProxyCalls)
	}
	assertSameResult(t, cold, warm)

	// Steady state: the adopted entry is a plain cache hit now.
	again, err := e2.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if again.IndexRecovered || again.IndexBuilt || again.ProxyCalls != 0 {
		t.Fatalf("steady state: %+v", again)
	}
}

// TestRestartReRegistrationInvalidatesDurably: a proxy RE-registration
// after recovery must drop the staged index durably — neither this
// boot nor the next can serve the superseded permutation.
func TestRestartReRegistrationInvalidatesDurably(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(32), 10000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d, &calls1)
	if _, err := e1.Execute(persistTestSQL); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	var calls2 int
	e2 := persistEngine(t, dir, d, &calls2)
	// Second registration of "p" in this process: an UPDATE, not a load.
	// Proxy scans run on several goroutines, so the counter is locked.
	var mu sync.Mutex
	e2.RegisterProxy("p", func(i int) float64 {
		mu.Lock()
		calls2++
		mu.Unlock()
		return d.Score(i)
	})
	res, err := e2.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexRecovered || !res.IndexBuilt || calls2 != d.Len() {
		t.Fatalf("re-registered proxy served recovered index: %+v (calls %d)", res, calls2)
	}
	e2.Close()

	// The rebuild was flushed, so the NEXT boot recovers the new index;
	// the old one is gone for good either way.
	var calls3 int
	e3 := persistEngine(t, dir, d, &calls3)
	res3, err := e3.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.IndexRecovered || calls3 != 0 {
		t.Fatalf("third boot: IndexRecovered=%v proxy calls=%d", res3.IndexRecovered, calls3)
	}
}

// TestRestartAppendChainsTail: when the table grew (AppendTable) after
// the last index flush, recovery adopts the persisted prefix and scores
// only the appended tail — and the chained result is byte-identical to
// a from-scratch build over the combined data.
func TestRestartAppendChainsTail(t *testing.T) {
	dir := t.TempDir()
	base := dataset.Beta(randx.New(33), 20000, 0.01, 2)
	extra := dataset.Beta(randx.New(34), 5000, 0.01, 2)

	e1, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	e1.RegisterDatasetDefaults("t", base)
	if _, err := e1.Execute(appendTestSQL); err != nil {
		t.Fatal(err)
	}
	// Grow the table but crash before any query flushes the extended
	// index: disk now has the combined dataset + the base-only index.
	if _, err := e1.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recovered := e2.RecoveredDatasets()
	if len(recovered) != 1 || recovered[0].Len() != base.Len()+extra.Len() {
		t.Fatalf("recovered datasets: %d (len %d)", len(recovered), recovered[0].Len())
	}
	e2.RegisterDatasetDefaults("t", recovered[0])
	res, err := e2.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexRecovered || res.ProxyCalls != extra.Len() {
		t.Fatalf("chained recovery: IndexRecovered=%v ProxyCalls=%d, want tail of %d",
			res.IndexRecovered, res.ProxyCalls, extra.Len())
	}

	fresh := NewWithOptions(7, Options{SegmentSize: 4096})
	fresh.RegisterDatasetDefaults("t", base.Append(extra))
	want, err := fresh.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, res)

	// The chained flush made the extension durable: a third boot pays
	// nothing at all.
	e2.Close()
	e3, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	e3.RegisterDatasetDefaults("t", e3.RecoveredDatasets()[0])
	res3, err := e3.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.IndexRecovered || res3.ProxyCalls != 0 {
		t.Fatalf("third boot: IndexRecovered=%v ProxyCalls=%d, want full adoption", res3.IndexRecovered, res3.ProxyCalls)
	}
}

// TestRestartCorruptSegmentRebuilds: a bit-flipped segment file must
// degrade recovery to a full rebuild with identical results — corrupt
// bytes are never served.
func TestRestartCorruptSegmentRebuilds(t *testing.T) {
	dir := t.TempDir()
	d := dataset.Beta(randx.New(35), 10000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d, &calls1)
	cold, err := e1.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files persisted: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var calls2 int
	e2 := persistEngine(t, dir, d, &calls2)
	info, _ := e2.RecoveryInfo()
	if info.Indexes != 0 || len(info.Degraded) == 0 {
		t.Fatalf("corrupt segment not degraded: %+v", info)
	}
	if info.Tables != 1 {
		t.Fatalf("dataset lost with the corrupt segment: %+v", info)
	}
	warm, err := e2.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.IndexBuilt || warm.IndexRecovered || calls2 != d.Len() {
		t.Fatalf("degraded boot must rebuild: IndexBuilt=%v IndexRecovered=%v calls=%d",
			warm.IndexBuilt, warm.IndexRecovered, calls2)
	}
	assertSameResult(t, cold, warm)
}

// TestRestartDifferentContentRewrites: registering DIFFERENT data under
// a recovered name must not adopt — the stale dataset and its indexes
// are dropped durably and the new content is persisted.
func TestRestartDifferentContentRewrites(t *testing.T) {
	dir := t.TempDir()
	d1 := dataset.Beta(randx.New(36), 8000, 0.01, 2)
	d2 := dataset.Beta(randx.New(37), 8000, 0.01, 2)

	var calls1 int
	e1 := persistEngine(t, dir, d1, &calls1)
	if _, err := e1.Execute(persistTestSQL); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	var calls2 int
	e2 := persistEngine(t, dir, d2, &calls2)
	res, err := e2.Execute(persistTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexRecovered || !res.IndexBuilt || calls2 != d2.Len() {
		t.Fatalf("stale index served for replaced content: %+v (calls %d)", res, calls2)
	}
	e2.Close()

	// The store now describes d2: the next boot recovers IT.
	e3, err := Open(7, Options{PersistDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	rec := e3.RecoveredDatasets()
	if len(rec) != 1 || rec[0].Score(0) != d2.Score(0) {
		t.Fatal("replacement content not persisted")
	}
}
