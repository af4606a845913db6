// Package index provides ScoreIndex, the immutable per-table proxy
// index at the heart of the selection hot path.
//
// The paper's operational model (Section 4.1) evaluates the cheap proxy
// once over the whole dataset; everything a query then needs from the
// score column — threshold counts |{x : A(x) >= tau}|, order
// statistics, the defensive-mixture sampling distribution and its Vose
// alias table — is a pure function of that column. A ScoreIndex
// precomputes all of it at table/proxy registration so each query costs
// O(oracle budget + |result|) instead of re-scanning, re-sorting, and
// rebuilding sampling structures over all n records.
//
// # Segmented layout
//
// The score column is split into fixed-size segments (Options.
// SegmentSize, default 256Ki records). Each segment owns its validated
// score sub-column and an ascending (score, id) permutation, and the
// segments are built independently across a bounded worker pool, so
// registration of an n-record table costs O(n/P · log S) wall time for
// P workers and segment size S instead of a single-core O(n log n)
// sort. The paper's statistical guarantees are distributional — they
// constrain which records are sampled, not how the sampling structures
// are laid out in memory — so the segmented index is required (and
// tested, see core.TestSelectSegmentedMatchesMonolithic) to answer
// every ScoreSource operation bit-for-bit identically to a monolithic
// single-segment index:
//
//   - CountAtLeast sums exact per-segment binary-search counts.
//   - KthHighest selects the exact global order statistic by binary
//     search over the IEEE-754 bit space (scores are validated
//     non-negative, where the bit pattern orders like the value).
//   - AppendAtLeast emits each segment's matching ids in ascending id
//     order; segments partition the id space in order, so the
//     concatenation is globally ascending — the degenerate k-way merge.
//   - Mixture computes the defensive weights with the exact per-element
//     operations and left-to-right summation order of
//     sampling.DefensiveWeights and feeds them to the same global
//     alias-table machinery, so weighted draws consume the random stream
//     identically to the monolithic path. Per-segment cumulative weight
//     masses are exposed for observability.
//
// # Incremental append
//
// Append extends an index with newly appended records without
// re-sorting the existing ones: old segments are reused as-is (their
// permutations are local, so nothing is rebased), the new records form
// fresh segments, and only those are validated and sorted. The mixture
// cache starts empty on the appended index because the defensive
// weights are a function of the whole column.
//
// A ScoreIndex is immutable after New/Append and safe for concurrent
// use by any number of queries; the mixture cache is internally
// synchronized.

package index

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"supg/internal/sampling"
)

// DefaultSegmentSize is the records-per-segment default: large enough
// that per-segment binary searches stay cheap relative to a query's
// oracle budget, small enough that a million-record table builds across
// several workers and an appended batch re-sorts only its own tail.
const DefaultSegmentSize = 256 << 10

// Options tune index construction. The zero value selects the
// defaults noted on each field.
type Options struct {
	// SegmentSize is the number of records per segment (the last
	// segment of a table may be smaller). <= 0 selects
	// DefaultSegmentSize.
	SegmentSize int
	// Parallelism bounds the number of segments built concurrently.
	// <= 0 selects GOMAXPROCS.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// MixtureKey identifies a cached defensive-mixture sampling
// distribution: the importance-weight exponent applied to proxy scores
// and the uniform mixing ratio (Algorithms 4/5 use 0.5 and 0.1).
type MixtureKey struct {
	Exponent float64
	Mix      float64
}

// mixture pairs the normalized defensive weights with their alias
// table. Both are immutable once published in the cache.
type mixture struct {
	weights []float64
	alias   *sampling.Alias
}

// segment is one fixed-size shard of the score column: a validated
// sub-column plus its local ascending (score, id) permutation. Record
// ids inside a segment are local; the global id of local record i is
// base+i, which keeps permutations reusable across appends.
type segment struct {
	base   int       // global id of the segment's first record
	scores []float64 // sub-column, record order (aliases the global column)
	perm   []int     // local ids ascending by (score, local id)
	sorted []float64 // scores[perm[i]] — ascending
}

// countAtLeast returns the segment's |{x : A(x) >= tau}| in O(log S).
func (s *segment) countAtLeast(tau float64) int {
	return len(s.sorted) - sort.SearchFloat64s(s.sorted, tau)
}

// appendAtLeast appends the segment's global record ids with score >=
// tau to dst in ascending id order. Selective thresholds copy the
// k-record suffix of the sorted permutation and re-sort it by id in
// O(k log k); dense thresholds scan the sub-column once in O(S), which
// is cheaper than the sort and emits ids already ordered.
func (s *segment) appendAtLeast(dst []int, tau float64) []int {
	n := len(s.sorted)
	cut := sort.SearchFloat64s(s.sorted, tau)
	k := n - cut
	if k == 0 {
		return dst
	}
	if k <= n/8 {
		start := len(dst)
		for _, p := range s.perm[cut:] {
			dst = append(dst, s.base+p)
		}
		slices.Sort(dst[start:])
		return dst
	}
	for i, sc := range s.scores {
		if sc >= tau {
			dst = append(dst, s.base+i)
		}
	}
	return dst
}

// ScoreIndex is the precomputed, immutable segmented index over one
// proxy-score column. Construct with New, NewWithOptions, or Append;
// the zero value is not usable.
type ScoreIndex struct {
	scores  []float64 // full validated column, record order
	segs    []*segment
	segSize int
	par     int
	// backing pins externally-owned memory (a mapped file) the column
	// and segment slices alias; nil for heap-built indexes. See
	// FromExternal.
	backing any

	mu       sync.RWMutex
	mixtures map[MixtureKey]*mixture
}

// New validates the score column and builds the index with default
// options. Every score must be a non-NaN value in [0, 1]; the first
// offending record is reported. The slice is copied, so callers may
// reuse their buffer.
func New(scores []float64) (*ScoreIndex, error) {
	return NewWithOptions(scores, Options{})
}

// NewWithOptions is New with explicit segment size and build
// parallelism. The resulting index answers every query identically to
// any other segmentation of the same column (including the monolithic
// SegmentSize >= len(scores) layout); options trade build latency and
// append granularity only.
func NewWithOptions(scores []float64, opts Options) (*ScoreIndex, error) {
	n := len(scores)
	if n == 0 {
		return nil, fmt.Errorf("index: empty score column")
	}
	opts = opts.withDefaults()
	own := make([]float64, n)
	copy(own, scores)
	segs, err := buildSegments(own, 0, opts)
	if err != nil {
		return nil, err
	}
	return &ScoreIndex{
		scores:   own,
		segs:     segs,
		segSize:  opts.SegmentSize,
		par:      opts.Parallelism,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// Append returns a new index over the old column extended with extra,
// reusing every existing segment's permutation and sorting only the
// appended records. The appended records always start a fresh segment
// at the old column's end regardless of how full the last segment is —
// query results are segmentation-independent, so nothing observable
// depends on the boundary. The receiving index is unchanged.
func (ix *ScoreIndex) Append(extra []float64) (*ScoreIndex, error) {
	if len(extra) == 0 {
		return nil, fmt.Errorf("index: empty append")
	}
	old := len(ix.scores)
	own := make([]float64, old+len(extra))
	copy(own, ix.scores)
	copy(own[old:], extra)
	opts := Options{SegmentSize: ix.segSize, Parallelism: ix.par}
	fresh, err := buildSegments(own, old, opts)
	if err != nil {
		return nil, err
	}
	segs := make([]*segment, 0, len(ix.segs)+len(fresh))
	for _, s := range ix.segs {
		// Re-point the sub-column into the new backing array (values are
		// bit-identical); perm and sorted are local and shared as-is.
		segs = append(segs, &segment{
			base:   s.base,
			scores: own[s.base : s.base+len(s.scores)],
			perm:   s.perm,
			sorted: s.sorted,
		})
	}
	segs = append(segs, fresh...)
	return &ScoreIndex{
		scores:  own,
		segs:    segs,
		segSize: ix.segSize,
		par:     ix.par,
		// Old segments share their perm/sorted slices, which may alias
		// externally-owned memory — keep it pinned.
		backing:  ix.backing,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// buildSegments validates and sorts column[start:] as SegmentSize-record
// segments across a bounded worker pool. Segment bases are global ids
// into column. On validation failure the error for the smallest
// offending record id is returned, matching the deterministic
// first-offender report of a sequential scan.
func buildSegments(column []float64, start int, opts Options) ([]*segment, error) {
	n := len(column) - start
	count := (n + opts.SegmentSize - 1) / opts.SegmentSize
	segs := make([]*segment, count)
	errs := make([]error, count)
	errAt := make([]int, count)

	run(opts.Parallelism, count, func(j int) {
		base := start + j*opts.SegmentSize
		end := base + opts.SegmentSize
		if end > len(column) {
			end = len(column)
		}
		segs[j], errAt[j], errs[j] = buildSegment(column, base, end)
	})

	firstErr, firstAt := error(nil), -1
	for j := range errs {
		if errs[j] != nil && (firstAt < 0 || errAt[j] < firstAt) {
			firstErr, firstAt = errs[j], errAt[j]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return segs, nil
}

// buildSegment validates column[base:end] and builds its sorted
// permutation. The returned int is the global id of the offending
// record when validation fails.
func buildSegment(column []float64, base, end int) (*segment, int, error) {
	sub := column[base:end]
	for i, s := range sub {
		if s < 0 || s > 1 || s != s {
			return nil, base + i, fmt.Errorf("index: score %g for record %d outside [0,1]", s, base+i)
		}
		if s == 0 {
			// Normalize -0.0 (which passes the s < 0 check) to +0.0:
			// the two compare equal everywhere scores are used, but
			// KthHighest's bit-space search and JSON serialization
			// distinguish the sign bit, and results must be identical
			// at every segment size.
			sub[i] = 0
		}
	}
	n := len(sub)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	buildSorts.Add(1)
	// Ties break by record id so the permutation is a deterministic
	// function of the column — the unique ascending (score, id) total
	// order, independent of the sort algorithm. Local id order equals
	// global id order within a segment. slices.SortFunc (pdqsort over a
	// monomorphized comparator) sorts measurably faster than the
	// interface-based sort.Slice on large segments.
	slices.SortFunc(perm, func(a, b int) int {
		if sub[a] != sub[b] {
			if sub[a] < sub[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	sorted := make([]float64, n)
	for i, p := range perm {
		sorted[i] = sub[p]
	}
	return &segment{base: base, scores: sub, perm: perm, sorted: sorted}, 0, nil
}

// run calls fn(0), ..., fn(n-1), each exactly once, across at most
// workers goroutines, the caller included. Iterations are claimed from
// an atomic counter, so fn must write only state disjoint between
// iterations; segment builds and verifications qualify.
func run(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Len returns the number of records.
func (ix *ScoreIndex) Len() int { return len(ix.scores) }

// Segments returns the number of segments.
func (ix *ScoreIndex) Segments() int { return len(ix.segs) }

// SegmentSize returns the configured records-per-segment.
func (ix *ScoreIndex) SegmentSize() int { return ix.segSize }

// Score returns record i's proxy score.
func (ix *ScoreIndex) Score(i int) float64 { return ix.scores[i] }

// Scores returns the validated score column in record order. The slice
// is shared with the index and must be treated as read-only.
func (ix *ScoreIndex) Scores() []float64 { return ix.scores }

// CountAtLeast returns |{x : A(x) >= tau}| as the sum of exact
// per-segment binary-search counts — O(S/segSize · log segSize).
func (ix *ScoreIndex) CountAtLeast(tau float64) int {
	n := 0
	for _, s := range ix.segs {
		n += s.countAtLeast(tau)
	}
	return n
}

// KthHighest returns the k-th highest score (0-based); k beyond the
// data clamps to the minimum score. With one segment this is a direct
// array lookup; across segments the exact global order statistic is
// found by binary search over the IEEE-754 bit space: scores are
// validated into [0, 1], where float bits order identically to values,
// and CountAtLeast(v) >= k+1 holds exactly for v at or below the
// answer, so the search converges to the stored element itself.
func (ix *ScoreIndex) KthHighest(k int) float64 {
	n := len(ix.scores)
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	if len(ix.segs) == 1 {
		return ix.segs[0].sorted[n-1-k]
	}
	lo, hi := uint64(0), math.Float64bits(1.0)
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if ix.CountAtLeast(math.Float64frombits(mid)) >= k+1 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return math.Float64frombits(lo)
}

// AppendAtLeast appends the record ids with score >= tau to dst in
// ascending id order and returns the extended slice. With capacity
// already in dst (size it with CountAtLeast) the call does not
// allocate. Segments partition the id space in ascending order, so
// emitting each segment's ascending matches in segment order yields
// the globally ascending id list.
func (ix *ScoreIndex) AppendAtLeast(dst []int, tau float64) []int {
	for _, s := range ix.segs {
		dst = s.appendAtLeast(dst, tau)
	}
	return dst
}

// maxCachedMixtures bounds the per-index mixture cache. Each entry
// holds O(n) weights plus an O(n) alias table, so an unbounded cache
// keyed by caller-supplied floats would let a parameter-sweeping
// workload accrete multi-MB entries for the life of the table. Real
// serving workloads use one or two (exponent, mix) configurations;
// past the bound, mixtures are built per call and not retained.
const maxCachedMixtures = 8

// Mixture returns the defensive-mixture weights and alias table for
// the given exponent/mix, building and caching them on first use (up
// to maxCachedMixtures distinct keys). The returned slices/tables are
// shared and must be treated as read-only. Concurrent callers may race
// to build the same entry; the loser's copy is discarded, so every
// caller observes one canonical value and draws are deterministic for
// a deterministic random stream.
func (ix *ScoreIndex) Mixture(exponent, mix float64) ([]float64, *sampling.Alias) {
	m := ix.mixtureEntry(exponent, mix)
	return m.weights, m.alias
}

// MixtureSegmentCumulative returns, for the given mixture
// configuration, the cumulative sampling mass of segments 0..i at each
// position i (the last entry is the total mass, 1 up to float
// rounding). This is the per-segment view of the sampling
// distribution: entry i - entry i-1 is the probability one weighted
// draw lands in segment i. It is an observability call, computed on
// demand from the cached weights (O(n)) rather than stored, so the
// query hot path never pays for it.
func (ix *ScoreIndex) MixtureSegmentCumulative(exponent, mix float64) []float64 {
	w := ix.mixtureEntry(exponent, mix).weights
	segCum := make([]float64, len(ix.segs))
	cum := 0.0
	for j, s := range ix.segs {
		for i := range s.scores {
			cum += w[s.base+i]
		}
		segCum[j] = cum
	}
	return segCum
}

func (ix *ScoreIndex) mixtureEntry(exponent, mix float64) *mixture {
	key := MixtureKey{Exponent: exponent, Mix: mix}
	ix.mu.RLock()
	m := ix.mixtures[key]
	ix.mu.RUnlock()
	if m == nil {
		built := ix.buildMixture(exponent, mix)
		ix.mu.Lock()
		switch {
		case ix.mixtures[key] != nil:
			m = ix.mixtures[key]
		case len(ix.mixtures) < maxCachedMixtures:
			ix.mixtures[key] = built
			m = built
		default:
			m = built // cache full: serve uncached, identical draws
		}
		ix.mu.Unlock()
	}
	return m
}

// buildMixture computes the defensive-mixture weights and their alias
// table. Every operation and the left-to-right summation order match
// sampling.DefensiveWeights exactly, so the weight vector — and hence
// the alias table and every draw made from it — is bit-for-bit the one
// a monolithic index computes (TestMixtureMatchesDefensiveWeights
// pins this).
func (ix *ScoreIndex) buildMixture(exponent, mix float64) *mixture {
	n := len(ix.scores)
	if mix < 0 {
		mix = 0
	}
	if mix > 1 {
		mix = 1
	}
	w := make([]float64, n)
	for i, sc := range ix.scores {
		if sc < 0 {
			sc = 0
		}
		var v float64
		switch {
		case exponent == 0:
			v = 1
		case exponent == 1:
			v = sc
		case exponent == 0.5:
			v = math.Sqrt(sc)
		default:
			v = math.Pow(sc, exponent)
		}
		w[i] = v
	}
	// Global left-to-right reduction: float addition is not
	// associative, so per-segment partial sums would drift from the
	// monolithic total by rounding and break bit-exact equivalence.
	total := 0.0
	for _, v := range w {
		total += v
	}
	uniform := 1.0 / float64(n)
	if total <= 0 {
		for i := range w {
			w[i] = uniform
		}
	} else {
		for i := range w {
			w[i] = (1-mix)*w[i]/total + mix*uniform
		}
	}
	return &mixture{weights: w, alias: sampling.NewAlias(w)}
}

// CachedMixtures reports how many (exponent, mix) entries the cache
// holds — observability for tests and metrics.
func (ix *ScoreIndex) CachedMixtures() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.mixtures)
}

// MinScore returns the smallest score in the column.
func (ix *ScoreIndex) MinScore() float64 {
	min := ix.segs[0].sorted[0]
	for _, s := range ix.segs[1:] {
		if v := s.sorted[0]; v < min {
			min = v
		}
	}
	return min
}

// MaxScore returns the largest score in the column.
func (ix *ScoreIndex) MaxScore() float64 {
	max := ix.segs[0].sorted[len(ix.segs[0].sorted)-1]
	for _, s := range ix.segs[1:] {
		if v := s.sorted[len(s.sorted)-1]; v > max {
			max = v
		}
	}
	return max
}
