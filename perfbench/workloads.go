package main

import (
	"encoding/json"
	"fmt"
	"time"

	"supg/internal/randx"
	"supg/internal/server"
)

const (
	// serverSeed is the service's own randomness seed. It is fixed, so
	// only the generated inputs vary with --seed.
	serverSeed = 20200801
	// table is the name every workload uploads its table under.
	table = "frames"
	// clients is the number of closed-loop client connections.
	clients = 2
	// betaA and betaB shape the Beta(0.01, 2) proxy scores of every
	// table: ~0.5% positives, the paper's low-rate regime.
	betaA, betaB = 0.01, 2.0
	// capIndices is the max_indices of capped-list requests.
	capIndices = 1000
)

// workload is one traffic mix with the exact server options it runs
// against.
type workload struct {
	Name string
	// Records is the initial table size.
	Records int
	// Setups is how many independent servers an oracle-bound or
	// warm-scan run sets up; setup_s is their median and the last one
	// serves the timed traffic. append-mixed sets up once per round.
	Setups int
	// ChaosRate is the seeded transient fault rate injected into the
	// oracle through Engine().WrapOracle (0 = none).
	ChaosRate float64
	// Durable turns on PersistDir and the label WAL.
	Durable bool
	// Pool is the number of distinct queries warm-scan repeats.
	Pool int
	// AppendBatch is the record count of every append.
	AppendBatch int
	// Appends is the number of appends in one append-mixed round (see
	// appendMixedOps). Other workloads append only after their timed
	// traffic.
	Appends int
	// MinOps is the op-sequence prefix every run completes; the answer
	// digest covers exactly these ops.
	MinOps int

	Options server.Options
}

// optionsRecord is the printable form of the server options a workload
// sets; every other option is the server default.
func (w workload) optionsRecord() string {
	wal := "off"
	if w.Durable {
		wal = fmt.Sprintf("fsync every %d record", w.Options.LabelWALSyncEvery)
	}
	b, _ := json.Marshal(map[string]any{ // plain values always encode
		"records":            w.Records,
		"oracle_latency":     w.Options.OracleLatency.String(),
		"oracle_parallelism": w.Options.OracleParallelism,
		"oracle_retries":     w.Options.OracleRetries,
		"oracle_backoff":     w.Options.OracleBackoff.String(),
		"label_cache_bytes":  w.Options.LabelCacheBytes,
		"chaos_fault_rate":   w.ChaosRate,
		"persist_dir":        w.Durable,
		"label_wal":          wal,
		"server_seed":        serverSeed,
	})
	return string(b)
}

// workloads returns the benchmark's workloads at full scale, or at a
// tiny scale for the self-test.
func workloads(tiny bool) map[string]workload {
	n, base, batch, pool := 1_000_000, 1<<18, 1<<14, 24
	if tiny {
		n, base, batch, pool = 20_000, 4096, 256, 8
	}
	return map[string]workload{
		"oracle-bound": {
			Name:        "oracle-bound",
			Records:     n,
			AppendBatch: batch,
			Setups:      3,
			ChaosRate:   0.02,
			MinOps:      32,
			Options: server.Options{
				OracleLatency:     time.Millisecond,
				OracleParallelism: 8,
				OracleRetries:     5,
				OracleBackoff:     time.Millisecond,
				LabelCacheBytes:   256 << 10,
			},
		},
		"warm-scan": {
			Name:        "warm-scan",
			Records:     n,
			AppendBatch: batch,
			Setups:      3,
			Pool:        pool,
			MinOps:      pool,
		},
		"append-mixed": {
			Name:        "append-mixed",
			Records:     base,
			Durable:     true,
			Appends:     40,
			AppendBatch: batch,
			MinOps:      41*epochQueries + 40,
			Options: server.Options{
				LabelWALSyncEvery: 1,
			},
		},
	}
}

// op is one request of a workload's operation sequence.
type op struct {
	// SQL is the query text (empty for appends).
	SQL string
	// Recall and Gamma give the query's target, for target_met_share.
	Recall bool
	Gamma  float64
	// Include and Max are the request's include_indices / max_indices.
	Include bool
	Max     int
	// Append is the 1-based append batch number (0 for queries).
	Append int
	// Version is the number of appends before this op in its round.
	Version int
}

// queryText renders a SUPG statement over the benchmark table. The
// target is given in tenths of a percent.
func queryText(recall bool, permille, budget int) string {
	kind := "PRECISION"
	if recall {
		kind = "RECALL"
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s_oracle(x) = true ORACLE LIMIT %d USING %s_proxy(x) %s TARGET %d.%d%% WITH PROBABILITY 95%%",
		table, table, budget, table, kind, permille/10, permille%10)
}

func queryOp(recall bool, permille, budget int) op {
	return op{SQL: queryText(recall, permille, budget), Recall: recall, Gamma: float64(permille) / 1000}
}

// sizeClass sorts a recall query by its result size: small under a
// fifth of the table (10^4 to 2*10^5 ids at 10^6 records), large over
// nine tenths. Sizes between are neither and are redrawn. size answers
// a query from the benchmark's own replica.
type sizeClass int

const (
	small sizeClass = iota
	large
	between
)

func classify(o op, records int, size func(op) (int, error)) (sizeClass, error) {
	k, err := size(o)
	switch {
	case err != nil:
		return between, err
	case k < records/5:
		return small, nil
	case k > records/10*9:
		return large, nil
	}
	return between, nil
}

// maxOracleBoundOps caps the oracle-bound sequence; a 30 s run at ~15
// queries/s sends about 450.
const maxOracleBoundOps = 768

// oracleBoundOps draws distinct queries in rounds of eight strata:
// recall and precision targets in four bands each. Recall results are
// stratified by size, so every seed sees the same mix: the top recall
// band always answers with (nearly) the whole table, the others with a
// small set.
func oracleBoundOps(seed uint64, records int, size func(op) (int, error)) ([]op, error) {
	r := randx.New(seed).Stream(11)
	seen := make(map[string]bool)
	ops := make([]op, 0, maxOracleBoundOps)
	for len(ops) < maxOracleBoundOps {
		for _, s := range r.Perm(8) {
			recall, band := s%2 == 0, s/2
			for tries := 0; ; tries++ {
				if tries > 1000 {
					return nil, fmt.Errorf("oracle-bound: no query found for stratum %d", s)
				}
				o := queryOp(recall, 750+50*band+r.IntN(50), 800+r.IntN(400))
				if seen[o.SQL] {
					continue
				}
				seen[o.SQL] = true
				if recall {
					c, err := classify(o, records, size)
					if err != nil {
						return nil, err
					}
					want := small
					if band == 3 {
						want = large
					}
					if c != want {
						continue
					}
				}
				ops = append(ops, o)
				break
			}
		}
	}
	return ops, nil
}

// warmSlots is the shape of every eight warm-scan pool entries: five
// count-only requests, one capped list and two full lists; six of the
// eight answer with (nearly) the whole table, so the latency median
// and 95th percentile each fall inside one homogeneous group.
var warmSlots = []struct {
	include bool
	max     int
	class   sizeClass
}{
	{false, 0, large}, {false, 0, large}, {false, 0, large}, {false, 0, large},
	{false, 0, small}, {true, capIndices, large}, {true, 0, large}, {true, 0, small},
}

// warmScanPool fills the warm-scan pool (a multiple of eight entries)
// from distinct seeded recall queries, following warmSlots.
func warmScanPool(seed uint64, n, records int, size func(op) (int, error)) ([]op, error) {
	r := randx.New(seed).Stream(12)
	seen := make(map[string]bool)
	pool := make([]op, 0, n)
	for i := 0; i < n; i++ {
		slot := warmSlots[i%len(warmSlots)]
		for tries := 0; ; tries++ {
			if tries > 1000 {
				return nil, fmt.Errorf("warm-scan: no query found for pool slot %d", i)
			}
			o := queryOp(true, 700+r.IntN(291), 900+r.IntN(201))
			if seen[o.SQL] {
				continue
			}
			seen[o.SQL] = true
			c, err := classify(o, records, size)
			if err != nil {
				return nil, err
			}
			if c == slot.class {
				o.Include, o.Max = slot.include, slot.max
				pool = append(pool, o)
				break
			}
		}
	}
	return pool, nil
}

// maxWarmScanOps caps the warm-scan sequence.
const maxWarmScanOps = 1 << 16

// warmScanOps repeats the pool in seeded shuffled rounds.
func warmScanOps(seed uint64, pool []op) []op {
	r := randx.New(seed).Stream(13)
	ops := make([]op, 0, maxWarmScanOps)
	for len(ops)+len(pool) <= maxWarmScanOps {
		for _, i := range r.Perm(len(pool)) {
			ops = append(ops, pool[i])
		}
	}
	return ops
}

// epochQueries is the number of queries between two appends.
const epochQueries = 4

// appendMixedOps is one append-mixed round. Each epoch sends two
// recall and two precision queries from a seeded pool of four each,
// one recall query asking for a capped list, in seeded order; then an
// append. The round ends with an epoch of queries, so the last append
// is indexed (and flushed) before a restart.
func appendMixedOps(seed uint64, w workload) []op {
	r := randx.New(seed).Stream(14)
	var rt, pt []op
	for i := 0; i < 4; i++ {
		rt = append(rt, queryOp(true, 750+r.IntN(200), 900+r.IntN(201)))
		pt = append(pt, queryOp(false, 750+r.IntN(200), 900+r.IntN(201)))
	}
	var ops []op
	for e := 0; e <= w.Appends; e++ {
		epoch := []op{rt[r.IntN(4)], rt[r.IntN(4)], pt[r.IntN(4)], pt[r.IntN(4)]}
		epoch[0].Include, epoch[0].Max = true, capIndices
		for _, i := range r.Perm(epochQueries) {
			o := epoch[i]
			o.Version = e
			ops = append(ops, o)
		}
		if e < w.Appends {
			ops = append(ops, op{Append: e + 1, Version: e})
		}
	}
	return ops
}
