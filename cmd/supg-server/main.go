// Command supg-server runs the SUPG HTTP service: upload datasets and
// execute SUPG queries over the network, synchronously or through the
// async job API.
//
// Usage:
//
//	supg-server -addr :8080 [-preload beta] [-workers 4] [-oracle-parallelism 8] \
//	            [-persist-dir /var/lib/supg] [-label-wal /var/lib/supg/labels.wal]
//
// With -persist-dir set, uploaded datasets and built score indexes
// are flushed to disk and recovered on the next boot (mmap'd, zero
// proxy re-scans, byte-identical results); the label WAL defaults to
// labels.wal inside that directory, so a bare -persist-dir makes the
// whole server state durable. The boot banner reports what was
// recovered.
//
// API:
//
//	GET    /healthz               liveness (always 200 while the process serves)
//	GET    /readyz                readiness: 503 while any oracle circuit
//	                              breaker is open
//	GET    /v1/datasets
//	PUT    /v1/datasets/{name}    body: CSV (id,proxy_score,label) or
//	                              binary with Content-Type: application/octet-stream
//	PUT    /v1/datasets/{name}/append
//	                              append records to an uploaded dataset (same
//	                              body formats); cached score indexes extend
//	                              incrementally instead of rebuilding
//	POST   /v1/query              body: {"sql": "SELECT * FROM ..."} (synchronous);
//	                              add "free_reuse": true to serve labels already
//	                              in the cross-query label cache without charging
//	                              the oracle budget
//	POST   /v1/jobs               same body; returns 202 + job id (asynchronous)
//	GET    /v1/jobs               list job statuses
//	GET    /v1/jobs/{id}          job status and, when done, the result
//	DELETE /v1/jobs/{id}          cancel an active job / remove a finished one
//	GET    /v1/stats              service counters
//
// Example session:
//
//	supg-datagen -kind beta -n 100000 -out /tmp/beta.csv
//	curl -X PUT --data-binary @/tmp/beta.csv localhost:8080/v1/datasets/beta
//	curl -X POST localhost:8080/v1/jobs -d '{"sql":
//	  "SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 1000
//	   USING beta_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%"}'
//	curl localhost:8080/v1/jobs/job-000001
//
// On SIGINT/SIGTERM the server stops accepting connections, then
// drains in-flight and queued jobs up to -shutdown-grace before
// cancelling whatever remains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"supg/internal/dataset"
	"supg/internal/randx"
	"supg/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Uint64("seed", 1, "query randomness seed")
		preload     = flag.String("preload", "", "preload a demo dataset: beta|imagenet|nightstreet")
		n           = flag.Int("n", 100_000, "preloaded dataset size (beta/nightstreet)")
		workers     = flag.Int("workers", 4, "async job worker-pool size")
		parallelism = flag.Int("oracle-parallelism", 1, "concurrent oracle calls per query (oracle UDFs must be goroutine-safe when > 1)")
		maxBody     = flag.Int64("max-body-bytes", 64<<20, "dataset upload size limit in bytes (negative disables)")
		retention   = flag.Duration("job-retention", 15*time.Minute, "how long finished jobs stay queryable")
		oracleLat   = flag.Duration("oracle-latency", 0, "simulated per-call oracle latency for every registered dataset (preloads and uploads)")
		segSize     = flag.Int("segment-size", 0, "records per score-index segment (0 = default 256Ki); identical results at any setting")
		buildPar    = flag.Int("index-build-parallelism", 0, "concurrent segment builds per index (0 = GOMAXPROCS)")
		labelBytes  = flag.Int64("label-cache-bytes", 0, "cross-query oracle label cache budget in bytes (0 = default 64 MiB; negative disables label reuse)")
		labelShards = flag.Int("label-cache-shards", 0, "label cache shards per (table, oracle) pair (0 = default 16)")
		labelWAL    = flag.String("label-wal", "", "path of the label store write-ahead log; bought labels are journaled and replayed on restart, so the server re-buys zero labels (empty = not durable)")
		walSync     = flag.Int("label-wal-sync-every", 1, "fsync the label WAL every N records (1 = every record)")
		oracleTO    = flag.Duration("oracle-timeout", 0, "per-attempt oracle UDF timeout; timed-out attempts are retried as transient failures (0 = unbounded)")
		oracleRetry = flag.Int("oracle-retries", 0, "retries per oracle call after a transient failure (0 = fail on first error); retries never change query results")
		brkThresh   = flag.Int("breaker-threshold", 0, "consecutive failed oracle calls that trip the circuit breaker open (0 = default 5)")
		brkCooldown = flag.Duration("breaker-cooldown", 0, "how long an open breaker fails fast before probing the backend again (0 = default 1s); also the Retry-After hint on 503s")
		grace       = flag.Duration("shutdown-grace", 30*time.Second, "drain window for in-flight jobs on shutdown")
		variants    = flag.Bool("preload-proxy-variants", false, "register <preload>_proxy_soft (sqrt) and <preload>_proxy_sharp (squared) proxy variants so FUSE queries are demoable out of the box")
		persistDir  = flag.String("persist-dir", "", "durable storage directory: datasets and built score indexes are flushed here and recovered on restart (mmap'd, zero proxy re-scans, byte-identical results); also the default home of the label WAL")
	)
	flag.Parse()

	// A persistent server wants a persistent label store too: default
	// the label WAL into the persist dir unless explicitly configured.
	if *persistDir != "" && *labelWAL == "" {
		*labelWAL = filepath.Join(*persistDir, "labels.wal")
	}

	srv, err := server.Open(*seed, server.Options{
		Workers:               *workers,
		OracleParallelism:     *parallelism,
		MaxBodyBytes:          *maxBody,
		JobRetention:          *retention,
		OracleLatency:         *oracleLat,
		SegmentSize:           *segSize,
		IndexBuildParallelism: *buildPar,
		LabelCacheBytes:       *labelBytes,
		LabelCacheShards:      *labelShards,
		LabelWALPath:          *labelWAL,
		LabelWALSyncEvery:     *walSync,
		OracleTimeout:         *oracleTO,
		OracleRetries:         *oracleRetry,
		BreakerThreshold:      *brkThresh,
		BreakerCooldown:       *brkCooldown,
		PersistDir:            *persistDir,
	})
	if err != nil {
		log.Fatalf("supg-server: %v", err)
	}
	if *labelWAL != "" {
		st := srv.Engine().LabelStore().Stats()
		fmt.Printf("label WAL %s: replayed %d labels (%d records)\n", *labelWAL, st.WALReplayed, st.WALRecords)
	}
	if info, ok := srv.Engine().RecoveryInfo(); ok {
		fmt.Printf("persist dir %s: recovered %d tables, %d indexes (%d segments), %.1f MiB mapped in %s\n",
			*persistDir, info.Tables, info.Indexes, info.Segments,
			float64(info.MappedBytes)/(1<<20), info.Elapsed.Round(time.Millisecond))
		for _, note := range info.Degraded {
			log.Printf("supg-server: persist recovery degraded: %s", note)
		}
	}
	if *preload != "" {
		d := srv.Dataset(*preload)
		if d != nil {
			// The storage tier already recovered this dataset — keep it
			// (and its persisted indexes) instead of regenerating, which
			// would invalidate the recovered state.
			fmt.Printf("preload %s: recovered %d records from persist dir, skipping regeneration\n",
				*preload, d.Len())
		} else {
			r := randx.New(*seed)
			switch *preload {
			case "beta":
				d = dataset.Beta(r, *n, 0.01, 2)
			case "imagenet":
				d = dataset.ImageNetSim(r)
			case "nightstreet":
				d = dataset.NightStreetSimN(r, *n)
			default:
				log.Fatalf("supg-server: unknown preload %q", *preload)
			}
			srv.RegisterDataset(*preload, d)
			fmt.Printf("preloaded %s: %d records (%.3f%% positive)\n",
				*preload, d.Len(), 100*d.PositiveRate())
		}
		if *variants {
			// Deterministic monotone transforms of the preloaded proxy:
			// individually they are miscalibrated views of the same
			// signal, which is exactly the shape FUSE queries combine —
			// e.g. USING FUSE(mean, beta_proxy(x), beta_proxy_soft(x)).
			soft, sharp := *preload+"_proxy_soft", *preload+"_proxy_sharp"
			srv.RegisterProxy(soft, func(i int) float64 { return math.Sqrt(d.Score(i)) })
			srv.RegisterProxy(sharp, func(i int) float64 { s := d.Score(i); return s * s })
			fmt.Printf("registered proxy variants %s, %s\n", soft, sharp)
		}
	}

	httpServer := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Hardening against slow or stuck clients: bound the header read
		// (slowloris), the full response write (queries can run minutes —
		// the window is generous but finite), and idle keep-alives.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Printf("supg-server listening on %s (%d job workers, oracle parallelism %d)\n",
		*addr, *workers, *parallelism)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("supg-server: shutting down, draining jobs...")

	// The listener shutdown and the job drain share the grace window but
	// run concurrently, so a slow synchronous query cannot starve the
	// job drain of its time.
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := httpServer.Shutdown(graceCtx); err != nil {
			log.Printf("supg-server: http shutdown: %v", err)
		}
	}()
	if err := srv.Shutdown(graceCtx); errors.Is(err, context.DeadlineExceeded) {
		log.Printf("supg-server: drain window expired; remaining jobs cancelled")
	} else if err != nil {
		log.Printf("supg-server: job drain: %v", err)
	}
	wg.Wait()
	fmt.Println("supg-server: bye")
}
