package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supg/internal/dataset"
	"supg/internal/metrics"
	"supg/internal/randx"
	"supg/internal/server"
)

// config is one benchmark run.
type config struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	// dir holds the run's scratch files (persist directories).
	dir string
}

// outcome is what a run measured and checked.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	notes     []string
	tracer    *tracer
}

// instance is one in-process server behind a loopback listener.
type instance struct {
	srv   *server.Server
	hs    *http.Server
	c     *client
	probe *oracleProbe
	done  chan error
	opts  server.Options
}

func start(opts server.Options) (*instance, error) {
	srv, err := server.Open(serverSeed, opts)
	if err != nil {
		return nil, fmt.Errorf("server.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: srv}, c: newClient(ln.Addr().String()),
		probe: &oracleProbe{}, done: make(chan error, 1), opts: opts}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// close stops the listener, waits for the serving goroutine, then shuts
// the server down (flushing its WAL and storage tier).
func (in *instance) close() error {
	in.c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := in.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// inputs are a run's generated inputs: the table, its upload body, the
// append batches and the operation sequence with its request bodies.
type inputs struct {
	data    *dataset.Dataset
	body    []byte
	batches []*dataset.Dataset
	bodies  [][]byte // binary append bodies
	ops     []op
	reqs    [][]byte // JSON query bodies (nil for appends)
	warm    []op     // set-up queries: index build and warm-up
}

func encode(d *dataset.Dataset) []byte {
	var b bytes.Buffer
	if err := dataset.WriteBinary(&b, d); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

// warmUp is the set-up query that builds the index. Its budget is
// below every timed query's, so it never repeats one.
var warmUp = queryOp(true, 500, 64)

// generate makes the run's inputs from its seed, and the replica that
// answers them (warm-scan sizes its pool with it).
func generate(cfg config, tr *tracer) (*inputs, *replica, error) {
	w := cfg.w
	in := &inputs{data: dataset.Beta(randx.New(cfg.seed).Stream(1), w.Records, betaA, betaB)}
	in.body = encode(in.data)
	r, err := newReplica(in.data, tr)
	if err != nil {
		return nil, nil, err
	}
	batches := w.Appends
	if batches == 0 {
		batches = probeAppends
	}
	for k := 0; k < batches; k++ {
		d := dataset.Beta(randx.New(cfg.seed).Stream(uint64(100+k)), w.AppendBatch, betaA, betaB)
		in.batches = append(in.batches, d)
		in.bodies = append(in.bodies, encode(d))
	}
	size := func(o op) (int, error) {
		e, err := r.expect(o.SQL)
		if err != nil {
			return 0, err
		}
		return e.returned, nil
	}
	switch w.Name {
	case "oracle-bound":
		if in.ops, err = oracleBoundOps(cfg.seed, w.Records, size); err != nil {
			return nil, nil, err
		}
		in.warm = []op{warmUp}
	case "warm-scan":
		pool, err := warmScanPool(cfg.seed, w.Pool, w.Records, size)
		if err != nil {
			return nil, nil, err
		}
		in.ops, in.warm = warmScanOps(cfg.seed, pool), pool
	case "append-mixed":
		in.ops, in.warm = appendMixedOps(cfg.seed, w), []op{warmUp}
	}
	in.reqs = make([][]byte, len(in.ops))
	for i, o := range in.ops {
		if o.Append == 0 {
			in.reqs[i] = queryBody(o)
		}
	}
	return in, r, nil
}

// tally accumulates the measurements of timed phases.
type tally struct {
	queries, appends, failed int
	lat, appendLat           []float64 // ms; a failed op counts as the largest float
	elapsed, overhead        []float64 // ms
	bytes                    int64
	oracleCalls, proxyCalls  int64
	met                      int
	wall                     time.Duration
	alloc                    uint64
	stats                    metrics.CounterSnapshot // summed deltas
	probeCalls, probeBusyNS  int64
}

func (t *tally) add(o op, a *answer) {
	ms := float64(a.Latency) / float64(time.Millisecond)
	if a.Err != nil {
		t.failed++
		ms = math.MaxFloat64
	}
	if o.Append > 0 {
		t.appends++
		t.appendLat = append(t.appendLat, ms)
		return
	}
	t.queries++
	t.lat = append(t.lat, ms)
	if a.Err != nil {
		return
	}
	t.elapsed = append(t.elapsed, a.ElapsedMS)
	t.overhead = append(t.overhead, ms-a.ElapsedMS)
	t.bytes += int64(a.Bytes)
	t.oracleCalls += int64(a.OracleCalls)
	t.proxyCalls += int64(a.ProxyCalls)
	got := a.Precision
	if o.Recall {
		got = a.Recall
	}
	if got >= o.Gamma {
		t.met++
	}
}

// window brackets a timed phase on one server: wall time, process
// allocation, /v1/stats counters and the oracle probe.
type window struct {
	in    *instance
	start time.Time
	alloc uint64
	st    metrics.CounterSnapshot
	calls int64
	busy  int64
}

func openWindow(ctx context.Context, in *instance) (*window, error) {
	st, err := in.c.stats(ctx)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &window{in: in, st: st, alloc: ms.TotalAlloc, calls: in.probe.calls.Load(),
		busy: in.probe.busyNS.Load(), start: time.Now()}, nil
}

func (w *window) close(ctx context.Context, t *tally) error {
	t.wall += time.Since(w.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc += ms.TotalAlloc - w.alloc
	t.probeCalls += w.in.probe.calls.Load() - w.calls
	t.probeBusyNS += w.in.probe.busyNS.Load() - w.busy
	st, err := w.in.c.stats(ctx)
	if err != nil {
		return err
	}
	d := &t.stats
	d.DispatchBatches += st.DispatchBatches - w.st.DispatchBatches
	d.LabelCacheHits += st.LabelCacheHits - w.st.LabelCacheHits
	d.LabelCacheMisses += st.LabelCacheMisses - w.st.LabelCacheMisses
	d.LabelCacheEvictions += st.LabelCacheEvictions - w.st.LabelCacheEvictions
	d.OracleRetries += st.OracleRetries - w.st.OracleRetries
	d.WALRecords += st.WALRecords - w.st.WALRecords
	d.StorageSegmentsPersisted += st.StorageSegmentsPersisted - w.st.StorageSegmentsPersisted
	return nil
}

// runner executes timed traffic against one server.
type runner struct {
	ctx     context.Context
	in      *inputs
	w       workload
	answers []*answer // by op index, per round
	tr      *tracer   // non-nil during traced phases
}

// records is the table size an op runs against.
func (r *runner) records(o op) int { return r.w.Records + o.Version*r.w.AppendBatch }

// queries runs ops[from:to) through the closed loop until the deadline
// passes (never stopping before index minOps) and returns the next
// unissued index.
func (r *runner) queries(srv *instance, from, to, minOps int, deadline time.Time) int {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b buffers
			for {
				i := int(next.Add(1) - 1)
				if i >= to || (i >= minOps && time.Now().After(deadline)) {
					return
				}
				t0 := time.Now()
				a := srv.c.query(r.ctx, r.in.reqs[i], r.records(r.in.ops[i]), &b)
				if r.tr != nil {
					// The server reports only its elapsed time, so its span
					// is placed to end with the response.
					end := t0.Add(a.Latency)
					id := r.tr.add("client.query", i, -1, t0, end)
					r.tr.add("engine.elapsed", i, id, end.Add(-time.Duration(a.ElapsedMS*float64(time.Millisecond))), end)
				}
				r.answers[i] = &a
			}
		}()
	}
	wg.Wait()
	if n := int(next.Load()); n < to {
		return n
	}
	return to
}

// round runs one whole append-mixed sequence: each epoch's queries
// through the closed loop, then its append alone, so every query sees
// a table state fixed by the sequence.
func (r *runner) round(srv *instance) {
	ops := r.in.ops
	var b buffers
	for i := 0; i < len(ops); {
		if ops[i].Append > 0 {
			t0 := time.Now()
			a := srv.c.appendTable(r.ctx, r.in.bodies[ops[i].Append-1], &b)
			r.tr.add("client.append", i, -1, t0, t0.Add(a.Latency))
			r.answers[i] = &a
			i++
			continue
		}
		j := i
		for j < len(ops) && ops[j].Append == 0 {
			j++
		}
		r.queries(srv, i, j, j, time.Time{})
		i = j
	}
}

// setup opens one server, uploads the table, instruments the oracle and
// runs the warm-up queries. It returns the server, the set-up time and
// the upload time.
func setup(ctx context.Context, cfg config, in *inputs, dir string) (*instance, time.Duration, time.Duration, []*answer, error) {
	w := cfg.w
	opts := w.Options
	if w.Durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, 0, nil, err
		}
		opts.PersistDir = filepath.Join(dir, "persist")
		opts.LabelWALPath = filepath.Join(dir, "labels.wal")
	}
	t0 := time.Now()
	srv, err := start(opts)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	fail := func(err error) (*instance, time.Duration, time.Duration, []*answer, error) {
		srv.close()
		return nil, 0, 0, nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	u := time.Now()
	n, err := srv.c.upload(ctx, in.body)
	upload := time.Since(u)
	if err != nil {
		return fail(err)
	}
	if n != w.Records {
		return fail(fmt.Errorf("upload acknowledged %d records, sent %d", n, w.Records))
	}
	if err := instrumentOracle(srv.srv, w, cfg.seed, srv.probe); err != nil {
		return fail(err)
	}
	var b buffers
	warm := make([]*answer, len(in.warm))
	for i, o := range in.warm {
		a := srv.c.query(ctx, queryBody(o), w.Records, &b)
		if a.Err != nil {
			return fail(a.Err)
		}
		warm[i] = &a
	}
	return srv, time.Since(t0), upload, warm, nil
}
