package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"supg/internal/core"
	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/metrics"
	"supg/internal/oracle"
	"supg/internal/query"
	"supg/internal/randx"
)

// replica is the benchmark's own copy of a workload's table: its
// ground truth plus an index with the engine's segmentation (built
// with index.NewWithOptions, extended by one Append per batch). It
// answers every query the way the server must, and its calls are the
// per-layer timings of the index, core, query and metrics packages.
type replica struct {
	d       *dataset.Dataset
	ix      *index.ScoreIndex
	version int
	// memo holds the expected answer per (version, sql).
	memo map[memoKey]*expected
	lt   *layerTimes
}

type memoKey struct {
	version int
	sql     string
}

// expected is a query's correct answer.
type expected struct {
	tau         float64 // NaN when no threshold was certifiable
	returned    int
	oracleCalls int
	precision   float64
	recall      float64
	fullHash    uint64 // idsHash of every returned id
	capHash     uint64 // idsHash of the first capIndices ids
}

// layerTimes collects the replica's per-call timings.
type layerTimes struct {
	build, parsePlan, sel, count, gather, evaluate, appendIx []time.Duration
	// segments is the replica's segment count after the workload's own
	// appends.
	segments int
}

func newReplica(d *dataset.Dataset, tr *tracer) (*replica, error) {
	start := time.Now()
	ix, err := index.NewWithOptions(d.Scores(), index.Options{})
	if err != nil {
		return nil, fmt.Errorf("replica index: %w", err)
	}
	lt := &layerTimes{}
	lt.build = append(lt.build, tr.since("index.build", -1, start))
	return &replica{d: d, ix: ix, memo: make(map[memoKey]*expected), lt: lt}, nil
}

// appendBatch extends the replica by one batch, as the engine does.
func (r *replica) appendBatch(extra *dataset.Dataset, tr *tracer, trace int) error {
	start := time.Now()
	ix, err := r.ix.Append(extra.Scores())
	if err != nil {
		return fmt.Errorf("replica append: %w", err)
	}
	r.lt.appendIx = append(r.lt.appendIx, tr.since("index.append", trace, start))
	r.ix, r.d = ix, r.d.Append(extra)
	r.version++
	return nil
}

// expect returns the correct answer of sql on the replica's current
// version.
func (r *replica) expect(sql string) (*expected, error) {
	key := memoKey{r.version, sql}
	if e, ok := r.memo[key]; ok {
		return e, nil
	}
	e, err := r.solve(sql, &layerTimes{}, nil, -1)
	if err != nil {
		return nil, err
	}
	r.memo[key] = e
	return e, nil
}

// timed is expect with each layer call timed into r.lt and traced.
func (r *replica) timed(sql string, tr *tracer, trace int) (*expected, error) {
	e, err := r.solve(sql, r.lt, tr, trace)
	if err == nil {
		r.memo[memoKey{r.version, sql}] = e
	}
	return e, err
}

// solve answers sql on the replica through the public query, core,
// index and metrics calls, timing each into lt.
func (r *replica) solve(sql string, lt *layerTimes, tr *tracer, trace int) (*expected, error) {
	start := time.Now()
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := query.BuildPlan(q, query.PlanOptions{})
	if err != nil {
		return nil, err
	}
	lt.parsePlan = append(lt.parsePlan, tr.since("query.parse_plan", trace, start))

	// The engine's random stream for a query: the server seed, split by
	// the FNV-1a hash of the canonical query text.
	rng := randx.New(serverSeed).Stream(fnv1a(plan.SourceText))
	truth := oracle.Func(func(i int) (bool, error) { return r.d.TrueLabel(i), nil })
	start = time.Now()
	res, err := core.SelectFromContextOptions(context.Background(), rng, r.ix, truth, plan.Spec, plan.Config, core.SelectOptions{})
	if err != nil {
		return nil, fmt.Errorf("replica select %q: %w", sql, err)
	}
	lt.sel = append(lt.sel, tr.since("core.select", trace, start))

	e := &expected{tau: res.Tau, returned: len(res.Indices), oracleCalls: res.OracleCalls}
	if math.IsInf(res.Tau, 1) {
		e.tau = math.NaN()
	} else {
		start = time.Now()
		k := r.ix.CountAtLeast(res.Tau)
		lt.count = append(lt.count, tr.since("index.count", trace, start))
		start = time.Now()
		ids := r.ix.AppendAtLeast(make([]int, 0, k), res.Tau)
		lt.gather = append(lt.gather, tr.since("index.gather", trace, start))
		if len(ids) != k {
			return nil, fmt.Errorf("replica: AppendAtLeast gathered %d ids, CountAtLeast counted %d", len(ids), k)
		}
	}
	start = time.Now()
	_ = metrics.Evaluate(r.d, res.Indices) // timed only; the check below uses the benchmark's own count
	lt.evaluate = append(lt.evaluate, tr.since("metrics.evaluate", trace, start))

	tp, h, ch := 0, idsHashSeed, idsHashSeed
	for n, id := range res.Indices {
		if r.d.TrueLabel(id) {
			tp++
		}
		h = idsHashStep(h, id)
		if n < capIndices {
			ch = idsHashStep(ch, id)
		}
	}
	e.fullHash, e.capHash = h, ch
	e.precision, e.recall = 1, 1
	if len(res.Indices) > 0 {
		e.precision = float64(tp) / float64(len(res.Indices))
	}
	if pos := r.d.PositiveCount(); pos > 0 {
		e.recall = float64(tp) / float64(pos)
	}
	return e, nil
}

// fnv1a is the 64-bit FNV-1a hash the engine derives query streams
// with.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// checkQuery compares a query answer with its expected answer.
func checkQuery(o op, a *answer, e *expected) error {
	switch {
	case math.IsNaN(a.Tau) != math.IsNaN(e.tau) || (!math.IsNaN(e.tau) && a.Tau != e.tau):
		return fmt.Errorf("tau %s, want %s", fmtTau(a.Tau), fmtTau(e.tau))
	case a.Returned != e.returned:
		return fmt.Errorf("returned %d, want %d", a.Returned, e.returned)
	case a.OracleCalls != e.oracleCalls:
		return fmt.Errorf("oracle_calls %d, want %d", a.OracleCalls, e.oracleCalls)
	case a.Precision != e.precision || a.Recall != e.recall:
		return fmt.Errorf("achieved P/R %v/%v, ground truth gives %v/%v", a.Precision, a.Recall, e.precision, e.recall)
	}
	if !o.Include {
		if a.IDs != 0 {
			return fmt.Errorf("%d ids returned without include_indices", a.IDs)
		}
		return nil
	}
	want, wantHash, trunc := e.returned, e.fullHash, false
	if o.Max > 0 && e.returned > o.Max {
		want, wantHash, trunc = o.Max, e.capHash, true
	}
	switch {
	case a.IDs != want || a.Truncated != trunc:
		return fmt.Errorf("%d ids (truncated %v) for returned %d, want %d (truncated %v)", a.IDs, a.Truncated, a.Returned, want, trunc)
	case a.IDsHash != wantHash:
		return fmt.Errorf("returned ids differ from the ground-truth answer")
	}
	return nil
}

// digest hashes the answers of an op sequence prefix: tau, returned,
// oracle_calls and the ids hash for queries, the table size for
// appends. Equal seeds must give equal digests.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: idsHashSeed} }

func (d *digest) add(o op, a *answer) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, c := range buf {
			d.h = (d.h ^ uint64(c)) * 1099511628211
		}
	}
	if o.Append > 0 {
		word(uint64(a.Records))
		return
	}
	word(math.Float64bits(a.Tau)) // NaN bits are canonical: math.NaN()
	word(uint64(a.Returned))
	word(uint64(a.OracleCalls))
	if o.Include {
		word(a.IDsHash)
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }
