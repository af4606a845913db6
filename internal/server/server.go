// Package server exposes the SUPG engine over HTTP, turning the batch
// query system of the paper's Section 4.1 into a small network service:
// upload datasets (CSV or the binary interchange format), then submit
// SUPG statements — synchronously via /v1/query, or asynchronously via
// the /v1/jobs API, which queues the query onto a bounded worker pool,
// labels oracle draws through the concurrent batch dispatcher, and
// serves progress and results over submit/poll. All state is
// in-memory; the service is a front-end to engine.Engine.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"supg/internal/dataset"
	"supg/internal/engine"
	"supg/internal/jobs"
	"supg/internal/metrics"
	"supg/internal/oracle"
)

// Options tune the server beyond the randomness seed. The zero value
// selects the defaults noted on each field.
type Options struct {
	// Workers is the async job worker-pool size (default 4).
	Workers int
	// OracleParallelism bounds concurrent oracle UDF calls per query
	// (default 1 = sequential). Results are independent of the setting.
	OracleParallelism int
	// MaxBodyBytes caps dataset upload bodies (default 64 MiB;
	// negative disables the cap).
	MaxBodyBytes int64
	// JobQueueDepth bounds the pending job queue (default 256).
	JobQueueDepth int
	// JobRetention is how long finished jobs stay queryable
	// (default 15 minutes).
	JobRetention time.Duration
	// OracleLatency adds a per-call sleep to the oracles of datasets
	// registered through RegisterDataset, simulating an expensive
	// ground-truth backend for demos and latency tests.
	OracleLatency time.Duration
	// SegmentSize is the records-per-segment of built score indexes
	// (default index.DefaultSegmentSize). Results are identical at any
	// setting; it tunes build parallelism granularity and append cost.
	SegmentSize int
	// IndexBuildParallelism bounds concurrent segment builds per index
	// (default GOMAXPROCS).
	IndexBuildParallelism int
	// LabelCacheBytes bounds the cross-query oracle label store shared
	// by every query and job (default 64 MiB; negative disables label
	// reuse). In the default charged mode the store changes only the
	// oracle UDF's call count, never query results.
	LabelCacheBytes int64
	// LabelCacheShards is the label store's shard count per (table,
	// oracle) pair (default 16).
	LabelCacheShards int
	// LabelWALPath, when non-empty, makes the label store crash-durable:
	// bought labels are journaled to a write-ahead log and replayed on
	// boot, so a restarted server re-buys zero labels (see
	// labelstore.Options.WALPath). Configure via Open — NewWithOptions
	// panics if the log cannot be opened.
	LabelWALPath string
	// LabelWALSyncEvery is the WAL fsync cadence (0 or 1 = every record).
	LabelWALSyncEvery int
	// OracleTimeout bounds one oracle UDF attempt (0 = unbounded);
	// timed-out attempts count as transient failures and are retried.
	OracleTimeout time.Duration
	// OracleRetries re-attempts transient oracle failures (0 = fail on
	// the first error). Retries never change query results.
	OracleRetries int
	// OracleBackoff is the base retry backoff, doubling per retry with
	// deterministic jitter (0 = 10ms).
	OracleBackoff time.Duration
	// BreakerThreshold consecutive finally-failed oracle calls trip the
	// per-oracle circuit breaker open (0 = 5); while open, queries fail
	// fast with 503 and GET /readyz reports not-ready.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// half-opening for a probe (0 = 1s). Also the Retry-After hint on
	// 503 responses.
	BreakerCooldown time.Duration
	// PersistDir, when non-empty, enables the engine's durable storage
	// tier: datasets and built score indexes are flushed there and
	// recovered on Open with zero proxy calls and zero re-sorts, and
	// recovered datasets are re-registered automatically (with
	// OracleLatency wrapping, exactly like a preload). See
	// engine.Options.PersistDir.
	PersistDir string
}

// defaultMaxBodyBytes caps uploads at 64 MiB unless overridden.
const defaultMaxBodyBytes = 64 << 20

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.OracleParallelism <= 0 {
		o.OracleParallelism = 1
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = defaultMaxBodyBytes
	}
	return o
}

// Server is an http.Handler serving the SUPG API:
//
//	GET    /healthz                    -> 200 "ok"
//	GET    /v1/datasets                -> JSON list of dataset summaries
//	PUT    /v1/datasets/{name}         -> upload CSV (default) or binary
//	                                      (Content-Type: application/octet-stream)
//	PUT    /v1/datasets/{name}/append  -> append records to an uploaded dataset
//	                                      (same body formats; indexes extend
//	                                      incrementally instead of rebuilding)
//	POST   /v1/query                   -> {"sql": "..."} -> query result (synchronous)
//	POST   /v1/jobs                    -> {"sql": "..."} -> 202 + job status (async)
//	GET    /v1/jobs                    -> list of job statuses, newest first
//	GET    /v1/jobs/{id}               -> job status (+ result when done)
//	DELETE /v1/jobs/{id}               -> cancel an active job / remove a finished one
//	GET    /v1/stats                   -> service counters
type Server struct {
	mu     sync.RWMutex
	engine *engine.Engine
	// summaries tracks uploads for the list endpoint; the engine holds
	// the authoritative data.
	summaries map[string]dataset.Summary
	datasets  map[string]*dataset.Dataset
	mux       *http.ServeMux
	opts      Options
	counters  *metrics.Counters
	manager   *jobs.Manager
}

// New returns a server with default options whose query randomness
// derives from seed.
func New(seed uint64) *Server { return NewWithOptions(seed, Options{}) }

// NewWithOptions returns a server with explicit tuning. Call Shutdown
// to drain the job workers when done. It panics if the configured
// label WAL cannot be opened — only reachable when Options.LabelWALPath
// is set; callers configuring a WAL should prefer Open.
func NewWithOptions(seed uint64, opts Options) *Server {
	s, err := Open(seed, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open is NewWithOptions with the label WAL's open/replay error
// surfaced instead of panicking. By the time Open returns, WAL replay
// is complete — a served request can never observe a half-recovered
// label store, which is why GET /readyz needs no replay progress state.
func Open(seed uint64, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	eng, err := engine.Open(seed, engine.Options{
		SegmentSize:       opts.SegmentSize,
		BuildParallelism:  opts.IndexBuildParallelism,
		LabelCacheBytes:   opts.LabelCacheBytes,
		LabelCacheShards:  opts.LabelCacheShards,
		LabelWALPath:      opts.LabelWALPath,
		LabelWALSyncEvery: opts.LabelWALSyncEvery,
		OracleTimeout:     opts.OracleTimeout,
		OracleRetries:     opts.OracleRetries,
		OracleBackoff:     opts.OracleBackoff,
		BreakerThreshold:  opts.BreakerThreshold,
		BreakerCooldown:   opts.BreakerCooldown,
		PersistDir:        opts.PersistDir,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		engine:    eng,
		summaries: make(map[string]dataset.Summary),
		datasets:  make(map[string]*dataset.Dataset),
		mux:       http.NewServeMux(),
		opts:      opts,
		counters:  &metrics.Counters{},
	}
	// Mirror label store activity into the service counters so
	// GET /v1/stats reports hit/miss/eviction/invalidation totals (plus
	// WAL records/replays), and breaker/retry/timeout activity likewise.
	s.engine.LabelStore().WithCounters(s.counters)
	s.engine.WithCounters(s.counters)
	// Re-register every dataset the storage tier recovered, before any
	// request can arrive. Registration passes the recovered dataset
	// pointer back, so the engine adopts the on-disk state (and its
	// staged indexes) instead of rewriting it.
	for _, d := range eng.RecoveredDatasets() {
		s.RegisterDataset(d.Name(), d)
	}
	s.manager = jobs.NewManager(s.runJob, jobs.Config{
		Workers:    opts.Workers,
		QueueDepth: opts.JobQueueDepth,
		Retention:  opts.JobRetention,
		Counters:   s.counters,
	})
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("/v1/datasets/", s.handleUploadDataset)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the async job subsystem — no new jobs are accepted,
// queued and running jobs finish unless ctx expires first (then they
// are cancelled) — and then flushes and closes the label store's
// write-ahead log. Call after the HTTP listener has stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.manager.Shutdown(ctx)
	if cerr := s.engine.Close(); err == nil {
		err = cerr
	}
	return err
}

// Engine exposes the underlying engine (for preload wiring in
// cmd/supg-server and for tests).
func (s *Server) Engine() *engine.Engine { return s.engine }

// Counters exposes the service counters (for tests and the stats
// endpoint).
func (s *Server) Counters() *metrics.Counters { return s.counters }

// RegisterDataset adds a dataset directly (used by cmd/supg-server to
// preload data and by tests). When Options.OracleLatency is set the
// dataset's oracle UDF sleeps that long per call, standing in for an
// expensive labeling backend.
func (s *Server) RegisterDataset(name string, d *dataset.Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.RegisterDatasetDefaults(name, d)
	if lat := s.opts.OracleLatency; lat > 0 {
		s.engine.WrapOracle(name+"_oracle", func(inner engine.OracleUDF) engine.OracleUDF {
			return func(i int) (bool, error) {
				time.Sleep(lat)
				return inner(i)
			}
		})
	}
	s.summaries[name] = d.Summarize()
	s.datasets[name] = d
}

// HasDataset reports whether a dataset is registered under name —
// via preload, upload, or storage-tier recovery.
func (s *Server) HasDataset(name string) bool {
	return s.Dataset(name) != nil
}

// Dataset returns the dataset registered under name (nil when absent).
func (s *Server) Dataset(name string) *dataset.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.datasets[name]
}

// RegisterProxy adds an extra proxy UDF to the underlying engine so
// multi-proxy FUSE queries can combine it with dataset-default proxies
// — used by cmd/supg-server's preload proxy variants and by tests. The
// UDF must be goroutine-safe and defined for every record id of the
// tables it is queried against.
func (s *Server) RegisterProxy(name string, fn func(record int) float64) {
	s.engine.RegisterProxy(name, fn)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyResponse is the GET /readyz body.
type readyResponse struct {
	Ready bool `json:"ready"`
	// BreakersOpen is the number of oracle circuit breakers currently
	// not closed; any open breaker makes the server not-ready (new
	// queries against that oracle would fail fast with 503).
	BreakersOpen int `json:"breakers_open"`
}

// handleReady serves the readiness probe: 200 once the server can
// usefully serve queries (WAL replay is complete before the server is
// constructed, see Open) and no oracle circuit breaker is open; 503
// otherwise. Liveness stays on /healthz, which never flips — an open
// breaker is a reason to drain traffic, not to restart the process.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	open := s.engine.OpenBreakers()
	resp := readyResponse{Ready: open == 0, BreakersOpen: open}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// DatasetInfo is the JSON shape of a dataset summary.
type DatasetInfo struct {
	Name      string  `json:"name"`
	Records   int     `json:"records"`
	Positives int     `json:"positives"`
	TPR       float64 `json:"tpr"`
	OracleUDF string  `json:"oracle_udf"`
	ProxyUDF  string  `json:"proxy_udf"`
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	s.mu.RLock()
	infos := make([]DatasetInfo, 0, len(s.summaries))
	for name, sum := range s.summaries {
		infos = append(infos, DatasetInfo{
			Name:      name,
			Records:   sum.Records,
			Positives: sum.Positives,
			TPR:       sum.TPR,
			OracleUDF: name + "_oracle",
			ProxyUDF:  name + "_proxy",
		})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

// AppendResponse is the PUT /v1/datasets/{name}/append output: the
// combined dataset's summary plus the number of records appended.
type AppendResponse struct {
	DatasetInfo
	Appended int `json:"appended"`
}

func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use PUT or POST")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	appendMode := false
	if base, ok := strings.CutSuffix(name, "/append"); ok {
		name, appendMode = base, true
	}
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusBadRequest, "dataset name must be a single path segment")
		return
	}
	if s.opts.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	defer r.Body.Close()

	var (
		d   *dataset.Dataset
		err error
	)
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		// Content-Length (when present and exact) lets the decoder
		// allocate the columns once at full size instead of growing.
		d, err = dataset.ReadBinarySized(r.Body, name, r.ContentLength)
	} else {
		d, err = dataset.ReadCSV(r.Body, name)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeBodyTooLarge(w, tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if appendMode {
		s.handleAppendDataset(w, name, d)
		return
	}
	s.RegisterDataset(name, d)
	sum := d.Summarize()
	writeJSON(w, http.StatusCreated, DatasetInfo{
		Name: name, Records: sum.Records, Positives: sum.Positives, TPR: sum.TPR,
		OracleUDF: name + "_oracle", ProxyUDF: name + "_proxy",
	})
}

// handleAppendDataset extends an uploaded dataset in place. Unlike a
// re-upload, the table's cached score indexes survive: the engine
// indexes only the appended records (a fresh segment) on the next
// query instead of re-scanning and re-sorting the whole table.
func (s *Server) handleAppendDataset(w http.ResponseWriter, name string, extra *dataset.Dataset) {
	var sum dataset.Summary
	s.mu.Lock()
	combined, err := s.engine.AppendTable(name, extra)
	if err == nil {
		sum = combined.Summarize()
		s.summaries[name] = sum
		s.datasets[name] = combined
	}
	s.mu.Unlock()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, engine.ErrUnknownTable) {
			code = http.StatusNotFound
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		DatasetInfo: DatasetInfo{
			Name: name, Records: sum.Records, Positives: sum.Positives, TPR: sum.TPR,
			OracleUDF: name + "_oracle", ProxyUDF: name + "_proxy",
		},
		Appended: extra.Len(),
	})
}

// QueryRequest is the /v1/query (and /v1/jobs) input.
type QueryRequest struct {
	SQL string `json:"sql"`
	// IncludeIndices controls whether the (possibly large) id list is
	// returned; statistics are always included.
	IncludeIndices bool `json:"include_indices"`
	// MaxIndices caps the returned id list (0 = no cap).
	MaxIndices int `json:"max_indices"`
	// FreeReuse makes cross-query label store hits free instead of
	// budget-charged for this query — the HTTP form of the grammar's
	// ORACLE LIMIT ... REUSE FREE clause (either one enables it).
	FreeReuse bool `json:"free_reuse"`
}

// QueryResponse is the /v1/query output.
type QueryResponse struct {
	Returned int `json:"returned"`
	// Tau is null when no proxy threshold was certifiable (the query
	// returned labeled positives only) — the engine models that case
	// as tau = +Inf, which JSON cannot carry.
	Tau         *float64 `json:"tau"`
	OracleCalls int      `json:"oracle_calls"`
	ProxyCalls  int      `json:"proxy_calls"`
	// IndexRecovered reports that this query adopted its score index
	// from the durable storage tier (first query of the pair after a
	// restart; zero sorts, zero proxy calls unless the table grew).
	IndexRecovered bool `json:"index_recovered,omitempty"`
	// LabelCacheHits counts labels served from the cross-query label
	// store instead of the oracle UDF (included in oracle_calls unless
	// the query ran with free reuse).
	LabelCacheHits int `json:"label_cache_hits"`
	// Fusion names the score source's fusion strategy when the query
	// used a multi-proxy FUSE source ("mean", "max", "logistic");
	// omitted for classic single-proxy queries.
	Fusion string `json:"fusion,omitempty"`
	// CalibrationCalls counts oracle calls spent calibrating the fused
	// index when this query built it (charged to index construction,
	// not to the query's ORACLE LIMIT; 0 on warm cache hits).
	CalibrationCalls int `json:"calibration_calls,omitempty"`
	// CalibrationCacheHits counts the calibration labels served by the
	// cross-query label store instead of the oracle UDF.
	CalibrationCacheHits int     `json:"calibration_cache_hits,omitempty"`
	ElapsedMS            float64 `json:"elapsed_ms"`
	// Achieved metrics are computable here because uploaded datasets
	// carry ground-truth labels (this is a simulation service).
	AchievedPrecision float64 `json:"achieved_precision"`
	AchievedRecall    float64 `json:"achieved_recall"`
	Indices           []int   `json:"indices,omitempty"`
	Truncated         bool    `json:"truncated,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	req, ok := s.decodeQueryRequest(w, r)
	if !ok {
		return
	}

	// The synchronous path shares the batch-oracle dispatcher with the
	// job path and is cancelled when the client disconnects.
	res, err := s.engine.ExecuteContext(r.Context(), req.SQL, engine.ExecOptions{
		OracleParallelism: s.opts.OracleParallelism,
		Counters:          s.counters,
		FreeReuse:         req.FreeReuse,
	})
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.buildQueryResponse(req, res))
}

// statusClientClosedRequest is the (nginx-convention) status for a
// query abandoned because the client went away — distinct from 504,
// where the server's own deadline expired, and from 500, which would
// page someone about a failure that was the client's choice.
const statusClientClosedRequest = 499

// writeQueryError maps a query execution error onto its HTTP status:
//
//   - context.Canceled        -> 499 (the client disconnected mid-query)
//   - context.DeadlineExceeded -> 504 (a server-side deadline expired)
//   - oracle.ErrOracleUnavailable -> 503 + Retry-After (the oracle
//     backend is down even with retries, or its breaker is open; the
//     error's labels-folded count tells the caller the paid work is
//     kept, so retrying after the hint resumes warm)
//   - anything else           -> 400 (a bad query)
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		// The client is usually gone, but the status still documents the
		// outcome for proxies and logs.
		httpError(w, statusClientClosedRequest, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, oracle.ErrOracleUnavailable):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// retryAfterSeconds derives the 503 Retry-After hint from the breaker
// cooldown: by then an open breaker has half-opened and a retry gets a
// probe slot. Never less than a second.
func (s *Server) retryAfterSeconds() int {
	cooldown := s.opts.BreakerCooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	secs := int(math.Ceil(cooldown.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// decodeQueryRequest parses and validates the shared query/job request
// body, writing the HTTP error itself when invalid. The body is capped
// by the same configured Options.MaxBodyBytes the dataset endpoints
// honor (it used to be a hardcoded 1 MiB, diverging from the
// documented knob), and overflow returns the same 413 shape.
func (s *Server) decodeQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, bool) {
	if s.opts.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeBodyTooLarge(w, tooBig.Limit)
			return req, false
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return req, false
	}
	if strings.TrimSpace(req.SQL) == "" {
		httpError(w, http.StatusBadRequest, "missing sql")
		return req, false
	}
	return req, true
}

// writeBodyTooLarge is the single 413 shape shared by every endpoint
// that enforces Options.MaxBodyBytes.
func writeBodyTooLarge(w http.ResponseWriter, limit int64) {
	httpError(w, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("request body exceeds the %d-byte limit", limit))
}

// buildQueryResponse shapes an engine result for the wire, applying the
// request's index-list controls and attaching achieved quality metrics
// (computable because uploaded datasets carry ground truth).
func (s *Server) buildQueryResponse(req QueryRequest, res *engine.QueryResult) QueryResponse {
	resp := QueryResponse{
		Returned:             len(res.Indices),
		OracleCalls:          res.OracleCalls,
		ProxyCalls:           res.ProxyCalls,
		IndexRecovered:       res.IndexRecovered,
		LabelCacheHits:       res.LabelCacheHits,
		Fusion:               res.Fusion,
		CalibrationCalls:     res.CalibrationCalls,
		CalibrationCacheHits: res.CalibrationCacheHits,
		ElapsedMS:            float64(res.Elapsed.Microseconds()) / 1000,
	}
	if !math.IsInf(res.Tau, 0) {
		tau := res.Tau
		resp.Tau = &tau
	}
	s.mu.RLock()
	if d, ok := s.datasets[res.Plan.Table]; ok {
		eval := metrics.Evaluate(d, res.Indices)
		resp.AchievedPrecision = eval.Precision
		resp.AchievedRecall = eval.Recall
	}
	s.mu.RUnlock()
	if req.IncludeIndices {
		resp.Indices = res.Indices
		if req.MaxIndices > 0 && len(resp.Indices) > req.MaxIndices {
			resp.Indices = resp.Indices[:req.MaxIndices]
			resp.Truncated = true
		}
	}
	return resp
}

// runJob is the jobs.Runner executing one queued query.
func (s *Server) runJob(ctx context.Context, payload any, progress func(int)) (any, error) {
	req, ok := payload.(QueryRequest)
	if !ok {
		return nil, fmt.Errorf("server: unexpected job payload %T", payload)
	}
	res, err := s.engine.ExecuteContext(ctx, req.SQL, engine.ExecOptions{
		OracleParallelism: s.opts.OracleParallelism,
		Progress:          progress,
		Counters:          s.counters,
		FreeReuse:         req.FreeReuse,
	})
	if err != nil {
		return nil, err
	}
	resp := s.buildQueryResponse(req, res)
	return &resp, nil
}

// JobInfo is the JSON shape of one job's status. Result is present
// only once the job is done.
type JobInfo struct {
	ID          string         `json:"id"`
	State       string         `json:"state"`
	SQL         string         `json:"sql"`
	Error       string         `json:"error,omitempty"`
	OracleCalls int            `json:"oracle_calls"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Result      *QueryResponse `json:"result,omitempty"`
}

func jobInfo(snap jobs.Snapshot) JobInfo {
	info := JobInfo{
		ID:          snap.ID,
		State:       string(snap.State),
		Error:       snap.Error,
		OracleCalls: snap.OracleCalls,
		SubmittedAt: snap.SubmittedAt,
	}
	if req, ok := snap.Payload.(QueryRequest); ok {
		info.SQL = req.SQL
	}
	if !snap.StartedAt.IsZero() {
		t := snap.StartedAt
		info.StartedAt = &t
	}
	if !snap.FinishedAt.IsZero() {
		t := snap.FinishedAt
		info.FinishedAt = &t
	}
	if resp, ok := snap.Result.(*QueryResponse); ok {
		info.Result = resp
	}
	return info
}

// handleJobs serves POST /v1/jobs (submit) and GET /v1/jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		req, ok := s.decodeQueryRequest(w, r)
		if !ok {
			return
		}
		job, err := s.manager.Submit(req)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, jobInfo(job.Snapshot()))
	case http.MethodGet:
		snaps := s.manager.List()
		infos := make([]JobInfo, 0, len(snaps))
		for _, snap := range snaps {
			snap.Result = nil // results only via GET /v1/jobs/{id}
			infos = append(infos, jobInfo(snap))
		}
		writeJSON(w, http.StatusOK, infos)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use POST or GET")
	}
}

// handleJobByID serves GET /v1/jobs/{id} (status + result) and
// DELETE /v1/jobs/{id} (cancel an active job, remove a finished one).
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "job id must be a single path segment")
		return
	}
	job, ok := s.manager.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, jobInfo(job.Snapshot()))
	case http.MethodDelete:
		if job.Snapshot().State.Terminal() {
			if err := s.manager.Remove(id); err != nil {
				httpError(w, http.StatusConflict, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, jobInfo(job.Snapshot()))
			return
		}
		if _, err := s.manager.Cancel(id); err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, jobInfo(job.Snapshot()))
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// handleStats serves the service counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.counters.Snapshot())
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than note it.
		fmt.Printf("server: encoding response: %v\n", err)
	}
}
