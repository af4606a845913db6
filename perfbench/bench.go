package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// probeAppends is how many appends a steady workload sends after its
// timed traffic, so append_p50_ms is measured on every workload.
const probeAppends = 16

// maxTimedQueries caps the distinct queries whose layer calls a traced
// run times on the replica.
const maxTimedQueries = 64

// run sets up the workload, sends its timed traffic, checks every
// answer and computes the metrics.
func run(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{metrics: make(map[string]metric)}
	if cfg.trace {
		out.tracer = newTracer()
	}
	tr := out.tracer
	in, rep, err := generate(cfg, tr)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, in: in, w: cfg.w}
	// plain holds untraced timed traffic; traced the traced phase of a
	// --trace 1 run.
	var plain, traced tally
	var setups, uploads []float64
	var recovery time.Duration
	if cfg.w.Appends > 0 {
		recovery, err = runRounds(cfg, r, rep, out, &plain, &traced, &setups, &uploads)
	} else {
		recovery, err = runSteady(cfg, r, rep, out, &plain, &traced, &setups, &uploads)
	}
	if err != nil {
		return nil, err
	}

	lt := rep.lt
	out.attempted = plain.queries + plain.appends + traced.queries + traced.appends
	out.failed = plain.failed + traced.failed
	m := out.metrics
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	perQuery := func(t *tally, v float64) float64 {
		if t.queries == 0 {
			return 0
		}
		return v / float64(t.queries)
	}
	endToEnd := func(t *tally) {
		set("setup_s", median(setups), "s")
		set("qps", float64(t.queries)/t.wall.Seconds(), "1/s")
		set("latency_p50_ms", median(t.lat), "ms")
		set("latency_p95_ms", percentile(t.lat, 0.95), "ms")
		set("append_p50_ms", median(t.appendLat), "ms")
		set("oracle_calls_per_query", perQuery(t, float64(t.oracleCalls)), "count")
		set("oracle_invocations_per_query", perQuery(t, float64(t.probeCalls)), "count")
		set("response_bytes_per_query", perQuery(t, float64(t.bytes)), "bytes")
		set("alloc_bytes_per_query", perQuery(t, float64(t.alloc)), "bytes")
		set("failed_share", float64(t.failed)/math.Max(1, float64(t.queries+t.appends)), "share")
		set("target_met_share", perQuery(t, float64(t.met)), "share")
	}
	if !cfg.trace {
		endToEnd(&plain)
		out.notes = append(out.notes, fmt.Sprintf("samples queries %d appends %d (p95 from %d latencies), setups %d",
			plain.queries, plain.appends, len(plain.lat), len(setups)))
		if recovery > 0 {
			out.notes = append(out.notes, fmt.Sprintf("durability restart recovered in %.3f ms", float64(recovery)/1e6))
		}
		return out, nil
	}

	t := &traced
	endToEnd(t)
	set("trace.overhead_ms", median(traced.lat)-median(plain.lat), "ms")
	set("server.overhead_ms", median(t.overhead), "ms")
	set("engine.elapsed_ms", median(t.elapsed), "ms")
	set("query.parse_plan_us", median(inUnits(lt.parsePlan, time.Microsecond)), "us")
	set("index.build_s", lt.build[0].Seconds(), "s")
	set("index.count_us", median(inUnits(lt.count, time.Microsecond)), "us")
	set("index.gather_ms", median(inUnits(lt.gather, time.Millisecond)), "ms")
	set("index.append_ms", median(inUnits(lt.appendIx, time.Millisecond)), "ms")
	set("index.segments", float64(lt.segments), "count")
	set("index.proxy_calls_per_query", perQuery(t, float64(t.proxyCalls)), "count")
	set("core.select_ms", median(inUnits(lt.sel, time.Millisecond)), "ms")
	set("metrics.evaluate_ms", median(inUnits(lt.evaluate, time.Millisecond)), "ms")
	// Oracle busy time is the summed duration of every UDF attempt. Per
	// query it is divided by the dispatch width, giving the wall time a
	// query waits on the oracle when its batches keep every slot busy;
	// concurrency is the same sum over the traced wall time.
	par := math.Max(1, float64(cfg.w.Options.OracleParallelism))
	busyMS := float64(t.probeBusyNS) / 1e6
	set("oracle.busy_ms_per_query", perQuery(t, busyMS)/par, "ms")
	set("oracle.concurrency", busyMS/(t.wall.Seconds()*1000), "calls")
	set("oracle.batches_per_query", perQuery(t, float64(t.stats.DispatchBatches)), "count")
	set("oracle.retries_per_query", perQuery(t, float64(t.stats.OracleRetries)), "count")
	hits, lookups := float64(t.stats.LabelCacheHits), float64(t.stats.LabelCacheHits+t.stats.LabelCacheMisses)
	set("labelstore.hit_rate", hits/math.Max(1, lookups), "share")
	set("labelstore.evictions", float64(t.stats.LabelCacheEvictions), "count")
	set("labelstore.wal_records_per_query", perQuery(t, float64(t.stats.WALRecords)), "count")
	set("storage.segments_persisted", float64(t.stats.StorageSegmentsPersisted), "count")
	set("storage.recovery_ms", float64(recovery)/1e6, "ms")
	set("dataset.upload_s", median(uploads), "s")
	return out, nil
}

// runSteady serves oracle-bound or warm-scan: Setups independent
// set-ups, then the timed closed loop on the last server, then a few
// appends. A traced run splits its time into an untraced and a traced
// half; its per-layer storage metrics come from a persistence probe.
func runSteady(cfg config, r *runner, rep *replica, out *outcome, plain, traced *tally, setups, uploads *[]float64) (time.Duration, error) {
	w := cfg.w
	var srv *instance
	for k := 0; k < w.Setups; k++ {
		s, d, u, warm, err := setup(r.ctx, cfg, r.in, filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			return 0, err
		}
		*setups, *uploads = append(*setups, d.Seconds()), append(*uploads, u.Seconds())
		for i, a := range warm {
			checkAgainst(out, rep, r.in.warm[i], a, -1)
		}
		if k < w.Setups-1 {
			if err := s.close(); err != nil {
				return 0, err
			}
		} else {
			srv = s
		}
	}
	r.answers = make([]*answer, len(r.in.ops))
	phase := func(t *tally, from, minOps int, d time.Duration) (int, error) {
		win, err := openWindow(r.ctx, srv)
		if err != nil {
			return 0, err
		}
		next := r.queries(srv, from, len(r.in.ops), minOps, time.Now().Add(d))
		if err := win.close(r.ctx, t); err != nil {
			return 0, err
		}
		for i := from; i < next; i++ {
			if a := r.answers[i]; a != nil {
				t.add(r.in.ops[i], a)
			}
		}
		return next, nil
	}
	// probes receives the appends sent after the timed traffic.
	probes, d := plain, cfg.seconds
	if cfg.trace {
		d /= 2
	}
	next, err := phase(plain, 0, w.MinOps, d)
	if err != nil {
		return 0, err
	}
	end := next
	if cfg.trace {
		srv.probe.tracer.Store(out.tracer)
		r.tr = out.tracer
		end, err = phase(traced, next, next, d)
		srv.probe.tracer.Store(nil)
		r.tr = nil
		if err != nil {
			return 0, err
		}
		probes = traced
	}
	var b buffers
	for k := 0; k < probeAppends; k++ {
		a := srv.c.appendTable(r.ctx, r.in.bodies[k], &b)
		o := op{Append: k + 1}
		probes.add(o, &a)
		if want := w.Records + (k+1)*w.AppendBatch; a.Err == nil && a.Records != want {
			out.failures = append(out.failures, fmt.Sprintf("append %d: table has %d records, want %d", k+1, a.Records, want))
		}
	}
	if err := srv.close(); err != nil {
		return 0, err
	}

	dg := newDigest()
	for i := 0; i < w.MinOps; i++ {
		dg.add(r.in.ops[i], r.answers[i])
	}
	out.notes = append(out.notes, "answer_digest "+dg.String())
	for i, a := range r.answers {
		if a != nil {
			checkAgainst(out, rep, r.in.ops[i], a, i)
		}
	}

	var recovery time.Duration
	if cfg.trace {
		// Time the layer calls of the traced phase's distinct queries.
		seen := make(map[string]bool)
		for i := next; i < end && len(seen) < maxTimedQueries; i++ {
			if o := r.in.ops[i]; r.answers[i] != nil && !seen[o.SQL] {
				seen[o.SQL] = true
				if _, err := rep.timed(o.SQL, out.tracer, i); err != nil {
					return 0, err
				}
			}
		}
		if recovery, err = persistProbe(cfg, r, rep, out); err != nil {
			return 0, err
		}
		rep.lt.segments = rep.ix.Segments()
		for _, b := range r.in.batches[:probeAppends] {
			if err := rep.appendBatch(b, out.tracer, -1); err != nil {
				return 0, err
			}
		}
	}
	return recovery, nil
}

// checkAgainst verifies one answer against the replica's current
// version and records any failure.
func checkAgainst(out *outcome, rep *replica, o op, a *answer, i int) {
	if a.Err != nil {
		out.failures = append(out.failures, fmt.Sprintf("op %d: %v", i, a.Err))
		return
	}
	e, err := rep.expect(o.SQL)
	if err == nil {
		err = checkQuery(o, a, e)
	}
	if err != nil {
		out.failures = append(out.failures, fmt.Sprintf("op %d (%s): %v", i, o.SQL, err))
	}
}

// persistProbe measures storage recovery on a steady workload's table:
// a durable server builds and flushes the index, restarts, and must
// answer the warm-up query from the recovered index with zero proxy
// calls and the same answer.
func persistProbe(cfg config, r *runner, rep *replica, out *outcome) (time.Duration, error) {
	opts := cfg.w.Options
	opts.PersistDir = filepath.Join(cfg.dir, "probe")
	srv, err := start(opts)
	if err != nil {
		return 0, err
	}
	if _, err := srv.c.upload(r.ctx, r.in.body); err != nil {
		srv.close()
		return 0, err
	}
	var b buffers
	body := queryBody(warmUp)
	if a := srv.c.query(r.ctx, body, cfg.w.Records, &b); a.Err != nil {
		srv.close()
		return 0, a.Err
	}
	if err := srv.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, err = start(opts)
	recovery := time.Since(t0)
	if err != nil {
		return 0, err
	}
	a := srv.c.query(r.ctx, body, cfg.w.Records, &b)
	if err := srv.close(); err != nil {
		return 0, err
	}
	if a.Err == nil && (!a.Recovered || a.ProxyCalls != 0) {
		out.failures = append(out.failures, fmt.Sprintf("persistence probe: index_recovered %v with %d proxy calls, want true with 0", a.Recovered, a.ProxyCalls))
	}
	checkAgainst(out, rep, warmUp, &a, -1)
	return recovery, nil
}

// runRounds serves append-mixed: whole rounds (fresh durable server,
// set-up, the full op sequence) until the time is up. A traced run
// alternates untraced and traced rounds, at least one of each. Every
// round must give the same answers; after the last one the server is
// restarted on its persist directory and checked.
func runRounds(cfg config, r *runner, rep *replica, out *outcome, plain, traced *tally, setups, uploads *[]float64) (time.Duration, error) {
	w := cfg.w
	deadline := time.Now().Add(cfg.seconds)
	var rounds [][]*answer
	var recovery time.Duration
	for {
		tracedRound := cfg.trace && len(rounds)%2 == 1
		srv, d, u, warm, err := setup(r.ctx, cfg, r.in, filepath.Join(cfg.dir, fmt.Sprintf("round-%d", len(rounds))))
		if err != nil {
			return 0, err
		}
		*setups, *uploads = append(*setups, d.Seconds()), append(*uploads, u.Seconds())
		for i, a := range warm {
			checkAgainst(out, rep, r.in.warm[i], a, -1)
		}
		t := plain
		if tracedRound {
			t = traced
			srv.probe.tracer.Store(out.tracer)
			r.tr = out.tracer
		}
		r.answers = make([]*answer, len(r.in.ops))
		win, err := openWindow(r.ctx, srv)
		if err != nil {
			srv.close()
			return 0, err
		}
		r.round(srv)
		err = win.close(r.ctx, t)
		srv.probe.tracer.Store(nil)
		r.tr = nil
		if err != nil {
			srv.close()
			return 0, err
		}
		for i, a := range r.answers {
			t.add(r.in.ops[i], a)
		}
		rounds = append(rounds, r.answers)
		more := time.Now().Before(deadline) || (cfg.trace && len(rounds) < 2)
		if more {
			if err := srv.close(); err != nil {
				return 0, err
			}
			continue
		}
		if recovery, err = restartCheck(r, srv, out); err != nil {
			return 0, err
		}
		break
	}

	// Verify the first round against the replica, replaying its appends;
	// later rounds must match the same expected answers and digest.
	var first string
	for k, answers := range rounds {
		dg := newDigest()
		for i, o := range r.in.ops {
			a := answers[i]
			dg.add(o, a)
			if o.Append == 0 {
				if k == 0 && cfg.trace {
					if _, ok := rep.memo[memoKey{o.Version, o.SQL}]; !ok {
						if _, err := rep.timed(o.SQL, out.tracer, i); err != nil {
							return 0, err
						}
					}
				}
				if k == 0 {
					checkAgainst(out, rep, o, a, i)
				} else if err := checkQuery(o, a, rep.memo[memoKey{o.Version, o.SQL}]); err != nil {
					out.failures = append(out.failures, fmt.Sprintf("round %d op %d: %v", k, i, err))
				}
				continue
			}
			if want := w.Records + o.Append*w.AppendBatch; a.Err != nil || a.Records != want {
				out.failures = append(out.failures, fmt.Sprintf("round %d append %d: records %d (err %v), want %d", k, o.Append, a.Records, a.Err, want))
			}
			if k == 0 {
				if err := rep.appendBatch(r.in.batches[o.Append-1], out.tracer, i); err != nil {
					return 0, err
				}
			}
		}
		if k == 0 {
			first = dg.String()
			out.notes = append(out.notes, "answer_digest "+first)
		} else if dg.String() != first {
			out.failures = append(out.failures, fmt.Sprintf("round %d digest %s differs from round 0's %s", k, dg, first))
		}
	}
	rep.lt.segments = rep.ix.Segments()
	if rep.lt.segments < 32 {
		out.failures = append(out.failures, fmt.Sprintf("append-mixed ended with %d index segments, want >= 32", rep.lt.segments))
	}
	return recovery, nil
}

// restartCheck closes the last append-mixed server and reopens one on
// the same persist directory and WAL: the recovered table must hold
// every acknowledged record, and the round's last query must come back
// from the recovered index with zero proxy calls and the same answer.
func restartCheck(r *runner, srv *instance, out *outcome) (time.Duration, error) {
	ops := r.in.ops
	last, acked := -1, r.w.Records
	for i, o := range ops {
		if o.Append > 0 && r.answers[i].Err == nil {
			acked = r.answers[i].Records
		} else if o.Append == 0 {
			last = i
		}
	}
	before := r.answers[last]
	if err := srv.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	srv, err := start(srv.opts)
	recovery := time.Since(t0)
	if err != nil {
		return 0, err
	}
	defer srv.close()
	n, err := srv.c.tableRecords(r.ctx)
	if err != nil {
		return 0, err
	}
	fail := func(format string, args ...any) {
		out.failures = append(out.failures, "durability: "+fmt.Sprintf(format, args...))
	}
	if n != acked {
		fail("recovered %d records, acknowledged %d", n, acked)
	}
	var b buffers
	a := srv.c.query(r.ctx, r.in.reqs[last], n, &b)
	switch {
	case a.Err != nil:
		fail("query after restart: %v", a.Err)
	case !a.Recovered || a.ProxyCalls != 0:
		fail("first query after restart: index_recovered %v with %d proxy calls, want true with 0", a.Recovered, a.ProxyCalls)
	case before.Err == nil && (math.Float64bits(a.Tau) != math.Float64bits(before.Tau) || a.Returned != before.Returned ||
		a.OracleCalls != before.OracleCalls || a.IDsHash != before.IDsHash || a.Precision != before.Precision):
		fail("answer after restart differs: tau %s returned %d calls %d, before tau %s returned %d calls %d",
			fmtTau(a.Tau), a.Returned, a.OracleCalls, fmtTau(before.Tau), before.Returned, before.OracleCalls)
	}
	return recovery, nil
}
