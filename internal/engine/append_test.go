package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"supg/internal/dataset"
	"supg/internal/oracle"
	"supg/internal/randx"
)

const appendTestSQL = `SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 500 USING t_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

func betaPair(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	base := dataset.Beta(randx.New(61), 30000, 0.01, 2)
	extra := dataset.Beta(randx.New(62), 10000, 0.01, 2)
	return base, extra
}

// TestAppendTableMatchesFreshRegistration: a table grown by AppendTable
// must answer queries byte-identically to a fresh engine registered
// with the combined dataset — the guarantees are a function of the
// data, not of how it arrived.
func TestAppendTableMatchesFreshRegistration(t *testing.T) {
	base, extra := betaPair(t)

	grown := NewWithOptions(7, Options{SegmentSize: 4096})
	grown.RegisterDatasetDefaults("t", base)
	if _, err := grown.Execute(appendTestSQL); err != nil {
		t.Fatal(err)
	}
	combined, err := grown.AppendTable("t", extra)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Len() != base.Len()+extra.Len() {
		t.Fatalf("combined has %d records, want %d", combined.Len(), base.Len()+extra.Len())
	}
	grownRes, err := grown.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !grownRes.IndexBuilt {
		t.Fatal("first query after append must extend the index")
	}
	if grownRes.ProxyCalls != extra.Len() {
		t.Fatalf("append path evaluated the proxy %d times, want only the %d appended records",
			grownRes.ProxyCalls, extra.Len())
	}

	fresh := NewWithOptions(7, Options{SegmentSize: 4096})
	fresh.RegisterDatasetDefaults("t", base.Append(extra))
	freshRes, err := fresh.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if grownRes.Tau != freshRes.Tau {
		t.Fatalf("tau %v (append) vs %v (fresh)", grownRes.Tau, freshRes.Tau)
	}
	if grownRes.OracleCalls != freshRes.OracleCalls {
		t.Fatalf("oracle calls %d vs %d", grownRes.OracleCalls, freshRes.OracleCalls)
	}
	if len(grownRes.Indices) != len(freshRes.Indices) {
		t.Fatalf("%d records (append) vs %d (fresh)", len(grownRes.Indices), len(freshRes.Indices))
	}
	for i := range freshRes.Indices {
		if grownRes.Indices[i] != freshRes.Indices[i] {
			t.Fatalf("record %d differs: %d vs %d", i, grownRes.Indices[i], freshRes.Indices[i])
		}
	}

	// Steady state after the extension: cache hit, no proxy work.
	again, err := grown.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if again.IndexBuilt || again.ProxyCalls != 0 {
		t.Fatalf("post-append steady state: IndexBuilt=%v ProxyCalls=%d, want cache hit", again.IndexBuilt, again.ProxyCalls)
	}
}

// TestAppendTableBeforeFirstQuery: appending to a never-queried table
// charges the first query for the full combined scan — base through
// the parent entry, extra through the append entry.
func TestAppendTableBeforeFirstQuery(t *testing.T) {
	base, extra := betaPair(t)
	e := New(7)
	e.RegisterDatasetDefaults("t", base)
	if _, err := e.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != base.Len()+extra.Len() {
		t.Fatalf("IndexBuilt=%v ProxyCalls=%d, want full %d-record build",
			res.IndexBuilt, res.ProxyCalls, base.Len()+extra.Len())
	}
}

// TestAppendTableChained: several appends before the next query chain
// incremental entries; the query pays for exactly the un-indexed tail.
func TestAppendTableChained(t *testing.T) {
	base, extra := betaPair(t)
	e := New(7)
	e.RegisterDatasetDefaults("t", base)
	if _, err := e.Execute(appendTestSQL); err != nil {
		t.Fatal(err)
	}
	half := extra.Len() / 2
	first, second := extra.Slice(0, half), extra.Slice(half, extra.Len())
	if _, err := e.AppendTable("t", first); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendTable("t", second); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != extra.Len() {
		t.Fatalf("IndexBuilt=%v ProxyCalls=%d, want the %d appended records only",
			res.IndexBuilt, res.ProxyCalls, extra.Len())
	}
}

// TestAppendTableErrors covers the input contract: unknown tables and
// empty appends are rejected.
func TestAppendTableErrors(t *testing.T) {
	base, extra := betaPair(t)
	e := New(1)
	if _, err := e.AppendTable("missing", extra); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("appending to unknown table: err = %v", err)
	}
	e.RegisterDatasetDefaults("t", base)
	if _, err := e.AppendTable("t", nil); err == nil {
		t.Fatal("nil append must be rejected")
	}
}

// TestReregistrationAfterAppendRebuildsFully: re-registering the
// table after appends must drop every incremental entry — the next
// query rebuilds from the new registration, never from stale segments.
func TestReregistrationAfterAppendRebuildsFully(t *testing.T) {
	base, extra := betaPair(t)
	e := New(7)
	e.RegisterDatasetDefaults("t", base)
	if _, err := e.Execute(appendTestSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	d2 := dataset.Beta(randx.New(99), 5000, 1, 1)
	e.RegisterDatasetDefaults("t", d2)
	res, err := e.Execute(appendTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != d2.Len() {
		t.Fatalf("IndexBuilt=%v ProxyCalls=%d, want a %d-record rebuild from the new registration",
			res.IndexBuilt, res.ProxyCalls, d2.Len())
	}
}

const badTailSQL = `SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 500 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`

// badTailEngine registers a 20,000-record table t whose proxy p scores
// the original records from the dataset and answers ids at or past the
// original length with bad(i). It runs one query so p's index exists,
// then appends 1,000 records. calls counts p's invocations from then on.
func badTailEngine(t *testing.T, bad func(i int) float64) (*Engine, *atomic.Int64) {
	t.Helper()
	base := dataset.Beta(randx.New(63), 20000, 0.01, 2)
	extra := dataset.Beta(randx.New(64), 1000, 0.01, 2)
	e := NewWithOptions(7, Options{SegmentSize: 4096})
	e.RegisterDatasetDefaults("t", base)
	calls := &atomic.Int64{}
	e.RegisterProxy("p", func(i int) float64 {
		calls.Add(1)
		if i >= base.Len() {
			return bad(i)
		}
		return base.Score(i)
	})
	if _, err := e.Execute(badTailSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendTable("t", extra); err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	return e, calls
}

// assertCachedBuildFailure runs badTailSQL twice: the first run scores
// (at most) the 1,000-record tail and fails permanently; the second
// returns the identical error from the cached entry without calling
// the proxy. It returns the first run's proxy call count.
func assertCachedBuildFailure(t *testing.T, e *Engine, calls *atomic.Int64, want ...string) int64 {
	t.Helper()
	_, first := e.Execute(badTailSQL)
	if first == nil {
		t.Fatal("query over the bad tail succeeded")
	}
	if oracle.Classify(first) != oracle.ClassPermanent {
		t.Fatalf("build error %q is not permanent", first)
	}
	for _, w := range want {
		if !strings.Contains(first.Error(), w) {
			t.Fatalf("build error %q does not mention %q", first, w)
		}
	}
	firstCalls := calls.Swap(0)
	if firstCalls == 0 || firstCalls > 1000 {
		t.Fatalf("failed append build made %d proxy calls, want at most the 1000-record tail", firstCalls)
	}
	_, second := e.Execute(badTailSQL)
	if second == nil || second.Error() != first.Error() {
		t.Fatalf("second query error %v, want the cached %q", second, first)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("second query made %d proxy calls, want 0 (cached permanent failure)", n)
	}
	return firstCalls
}

// TestAppendNaNScoreIsPermanent: an appended record the proxy scores
// NaN fails the index extension exactly like a fresh build would — a
// permanent error cached with the entry — so a repeat query neither
// re-scans the table nor changes the message.
func TestAppendNaNScoreIsPermanent(t *testing.T) {
	e, calls := badTailEngine(t, func(int) float64 { return math.NaN() })
	if n := assertCachedBuildFailure(t, e, calls, `engine: source "p"`); n != 1000 {
		t.Fatalf("failed append build made %d proxy calls, want the 1000-record tail", n)
	}
}

// TestPanickingProxyIsPermanent: a proxy UDF that panics fails the
// build with a permanent error naming the proxy and the record instead
// of crashing the process; the failure stays cached until the proxy is
// re-registered.
func TestPanickingProxyIsPermanent(t *testing.T) {
	e, calls := badTailEngine(t, func(i int) float64 { panic(fmt.Sprintf("no score for %d", i)) })
	assertCachedBuildFailure(t, e, calls, `"p"`, "record 20000", "no score for 20000")

	e.RegisterProxy("p", func(i int) float64 { return float64(i%100) / 100 })
	res, err := e.Execute(badTailSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexBuilt || res.ProxyCalls != 21000 {
		t.Fatalf("after re-registration: IndexBuilt=%v ProxyCalls=%d, want a full 21000-record build", res.IndexBuilt, res.ProxyCalls)
	}
}
