package index

import (
	"fmt"
	"math"
	"sync/atomic"
)

// buildSorts counts segment permutation sorts performed process-wide by
// buildSegment. It exists so recovery tests (and operators) can assert
// the zero-rescan contract: booting from a persisted index performs
// zero sorts, because FromExternal verifies the stored permutation
// instead of recomputing it.
var buildSorts atomic.Int64

// BuildSortsTotal reports how many segment permutation sorts this
// process has performed across all indexes.
func BuildSortsTotal() int64 { return buildSorts.Load() }

// SegmentData is the persistable artifact set of one segment: the
// global id of its first record plus the local ascending (score, id)
// permutation and the permuted score run. The slices are shared with
// the index that produced them (SegmentView) or adopted by the index
// that consumes them (FromExternal) and must be treated as read-only.
type SegmentData struct {
	// Base is the global id of the segment's first record.
	Base int
	// Perm holds local ids ascending by (score, local id).
	Perm []int
	// Sorted holds Column[Base+Perm[i]] — the segment's ascending run.
	Sorted []float64
}

// SegmentView exposes the i-th segment's artifacts for persistence.
// The returned slices alias the index's internal state.
func (ix *ScoreIndex) SegmentView(i int) SegmentData {
	s := ix.segs[i]
	return SegmentData{Base: s.base, Perm: s.perm, Sorted: s.sorted}
}

// External is a fully-materialized index image living in memory the
// index package did not allocate — typically mmap'd file sections. The
// column and every segment slice are adopted without copying, so the
// backing memory must stay valid (and unmodified) for the life of the
// returned index and anything derived from it.
type External struct {
	// Column is the full score column in record order. Segment
	// sub-columns alias Column[Base : Base+len(Perm)].
	Column []float64
	// Segments tile Column in ascending Base order.
	Segments []SegmentData
	// Backing optionally pins whatever owns the memory (a mapped file
	// handle); the index retains it so the mapping cannot be released
	// while reachable.
	Backing any
}

// FromExternal reconstructs a ScoreIndex over externally-owned memory
// without sorting anything. Instead of trusting the stored
// permutations, it verifies in O(n) that each segment's (Sorted, Perm)
// run is strictly ascending by (score, local id), in-bounds, and
// consistent with the column — which mathematically pins the
// permutation as the unique ascending (score, id) total order
// buildSegment computes, so a verified index answers every query
// bit-for-bit identically to a rebuild. Any inconsistency (including a
// -0.0 score, which buildSegment would have normalized in place —
// impossible here because the memory may be read-only) returns an
// error; callers fall back to a full rebuild rather than serving
// corrupt data.
//
// opts supplies the segment size and build parallelism used for
// verification and future Appends; it does not re-segment the external
// image.
func FromExternal(ext External, opts Options) (*ScoreIndex, error) {
	n := len(ext.Column)
	if n == 0 {
		return nil, fmt.Errorf("index: empty external column")
	}
	if len(ext.Segments) == 0 {
		return nil, fmt.Errorf("index: external image has no segments")
	}
	opts = opts.withDefaults()

	// Segments must tile the column contiguously from 0.
	next := 0
	for i, sd := range ext.Segments {
		if sd.Base != next {
			return nil, fmt.Errorf("index: external segment %d starts at %d, want %d", i, sd.Base, next)
		}
		if len(sd.Perm) == 0 || len(sd.Perm) != len(sd.Sorted) {
			return nil, fmt.Errorf("index: external segment %d has %d perm / %d sorted entries",
				i, len(sd.Perm), len(sd.Sorted))
		}
		next += len(sd.Perm)
		if next > n {
			return nil, fmt.Errorf("index: external segment %d overruns the %d-record column", i, n)
		}
	}
	if next != n {
		return nil, fmt.Errorf("index: external segments cover %d of %d records", next, n)
	}

	segs := make([]*segment, len(ext.Segments))
	errs := make([]error, len(ext.Segments))
	run(opts.Parallelism, len(ext.Segments), func(j int) {
		sd := ext.Segments[j]
		sub := ext.Column[sd.Base : sd.Base+len(sd.Perm)]
		if err := verifySegmentData(sub, sd); err != nil {
			errs[j] = err
			return
		}
		segs[j] = &segment{base: sd.Base, scores: sub, perm: sd.Perm, sorted: sd.Sorted}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &ScoreIndex{
		scores:   ext.Column,
		segs:     segs,
		segSize:  opts.SegmentSize,
		par:      opts.Parallelism,
		backing:  ext.Backing,
		mixtures: make(map[MixtureKey]*mixture),
	}, nil
}

// verifySegmentData checks one external segment against its sub-column.
// Strict (score, local id) ascent plus Sorted[i] == sub[Perm[i]] imply
// Perm is injective (two equal ids would force equal scores, breaking
// strictness) and therefore a bijection on [0, len) — the unique sorted
// permutation. Scores are additionally checked against the [0, 1]
// non-NaN, no-negative-zero invariant every built index guarantees.
func verifySegmentData(sub []float64, sd SegmentData) error {
	n := len(sub)
	for i, v := range sub {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("index: external score %g for record %d outside [0,1]", v, sd.Base+i)
		}
		if v == 0 && math.Signbit(v) {
			return fmt.Errorf("index: external score -0 for record %d (unnormalized column)", sd.Base+i)
		}
	}
	prevBits, prevID := uint64(0), -1
	for i, p := range sd.Perm {
		if p < 0 || p >= n {
			return fmt.Errorf("index: external perm entry %d of segment at %d out of range", p, sd.Base)
		}
		bits := math.Float64bits(sd.Sorted[i])
		if bits != math.Float64bits(sub[p]) {
			return fmt.Errorf("index: external sorted run diverges from column at record %d", sd.Base+p)
		}
		// Non-negative floats order by their bit patterns, so one integer
		// compare checks the (score, id) ascent.
		if i > 0 && (bits < prevBits || (bits == prevBits && p <= prevID)) {
			return fmt.Errorf("index: external permutation not ascending at segment offset %d (base %d)", i, sd.Base)
		}
		prevBits, prevID = bits, p
	}
	return nil
}
