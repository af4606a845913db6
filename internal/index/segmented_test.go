package index

import (
	"math"
	"sort"
	"testing"

	"supg/internal/randx"
	"supg/internal/sampling"
)

// tiedScores generates a column with heavy ties (and exact 0/1
// endpoints) so segment boundaries routinely split tie groups.
func tiedScores(seed uint64, n int) []float64 {
	r := randx.New(seed)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = math.Round(r.Float64()*40) / 40
	}
	return scores
}

// segmentSizesFor returns the satellite-mandated sweep: degenerate
// 1-record segments, a small prime, a mid size, and the monolithic
// single-segment layout.
func segmentSizesFor(n int) []int {
	return []int{1, 7, 1024, n}
}

// TestSegmentedMatchesMonolithicPrimitives checks every ScoreSource
// primitive of a segmented index against the single-segment layout,
// which preserves the original monolithic code path (direct sorted
// array, direct order statistics).
func TestSegmentedMatchesMonolithicPrimitives(t *testing.T) {
	for _, n := range []int{1, 2, 9, 1000, 5000} {
		scores := tiedScores(uint64(100+n), n)
		mono, err := NewWithOptions(scores, Options{SegmentSize: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, segSize := range segmentSizesFor(n) {
			seg, err := NewWithOptions(scores, Options{SegmentSize: segSize, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			wantSegs := (n + segSize - 1) / segSize
			if seg.Segments() != wantSegs {
				t.Fatalf("n=%d segSize=%d: %d segments, want %d", n, segSize, seg.Segments(), wantSegs)
			}
			assertIndexesEqual(t, mono, seg, n, segSize)
		}
	}
}

func assertIndexesEqual(t *testing.T, mono, seg *ScoreIndex, n, segSize int) {
	t.Helper()
	if mono.Len() != seg.Len() {
		t.Fatalf("lengths differ: %d vs %d", mono.Len(), seg.Len())
	}
	if mono.MinScore() != seg.MinScore() || mono.MaxScore() != seg.MaxScore() {
		t.Fatalf("n=%d segSize=%d: min/max differ", n, segSize)
	}
	taus := []float64{-0.5, 0, 0.025, 0.5, 0.975, 1, 1.5, math.Inf(1)}
	for _, tau := range taus {
		if m, s := mono.CountAtLeast(tau), seg.CountAtLeast(tau); m != s {
			t.Fatalf("n=%d segSize=%d tau=%v: count %d vs %d", n, segSize, tau, m, s)
		}
		m := mono.AppendAtLeast(nil, tau)
		s := seg.AppendAtLeast(nil, tau)
		if len(m) != len(s) {
			t.Fatalf("n=%d segSize=%d tau=%v: %d ids vs %d", n, segSize, tau, len(m), len(s))
		}
		for i := range m {
			if m[i] != s[i] {
				t.Fatalf("n=%d segSize=%d tau=%v: id[%d] %d vs %d", n, segSize, tau, i, m[i], s[i])
			}
		}
		if !sort.IntsAreSorted(s) {
			t.Fatalf("n=%d segSize=%d tau=%v: segmented ids not ascending", n, segSize, tau)
		}
	}
	for _, k := range []int{-3, 0, 1, n / 3, n - 1, n, 10 * n} {
		m := mono.KthHighest(k)
		s := seg.KthHighest(k)
		if math.Float64bits(m) != math.Float64bits(s) && m != s {
			t.Fatalf("n=%d segSize=%d k=%d: KthHighest %v vs %v", n, segSize, k, m, s)
		}
	}
}

// TestMixtureMatchesDefensiveWeights pins the bit-exactness contract
// of the mixture build: for every segmentation and every
// exponent branch, the weight vector must equal
// sampling.DefensiveWeights on the full column bit for bit, and draws
// from the alias table must match a freshly built monolithic one.
func TestMixtureMatchesDefensiveWeights(t *testing.T) {
	n := 3000
	scores := tiedScores(7, n)
	for _, segSize := range segmentSizesFor(n) {
		ix, err := NewWithOptions(scores, Options{SegmentSize: segSize, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []MixtureKey{
			{Exponent: 0.5, Mix: 0.1},
			{Exponent: 0, Mix: 0.1},
			{Exponent: 1, Mix: 0},
			{Exponent: 2.3, Mix: 0.25},
		} {
			w, alias := ix.Mixture(key.Exponent, key.Mix)
			want := sampling.DefensiveWeights(scores, key.Exponent, key.Mix)
			for i := range want {
				if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
					t.Fatalf("segSize=%d key=%+v: weight %d = %v, want %v", segSize, key, i, w[i], want[i])
				}
			}
			a := alias.DrawN(randx.New(99), 300)
			b := sampling.NewAlias(want).DrawN(randx.New(99), 300)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("segSize=%d key=%+v: draw %d: %d vs %d", segSize, key, i, a[i], b[i])
				}
			}
			cum := ix.MixtureSegmentCumulative(key.Exponent, key.Mix)
			if len(cum) != ix.Segments() {
				t.Fatalf("segSize=%d: %d cumulative entries for %d segments", segSize, len(cum), ix.Segments())
			}
			if total := cum[len(cum)-1]; math.Abs(total-1) > 1e-9 {
				t.Fatalf("segSize=%d key=%+v: cumulative mass %v, want 1", segSize, key, total)
			}
			if !sort.Float64sAreSorted(cum) {
				t.Fatalf("segSize=%d: cumulative masses not monotone: %v", segSize, cum)
			}
		}
	}
}

// TestAppendMatchesFreshBuild: an index grown by Append must answer
// every primitive identically to one built from the full column in one
// shot — including chains of appends and appends crossing segment
// boundaries.
func TestAppendMatchesFreshBuild(t *testing.T) {
	n := 4000
	scores := tiedScores(33, n)
	for _, segSize := range []int{7, 500, 1024, n} {
		fresh, err := NewWithOptions(scores, Options{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, splits := range [][]int{{n / 2}, {1000, 1001, 2500}, {1}} {
			prev := 0
			var grown *ScoreIndex
			bounds := append(append([]int{}, splits...), n)
			for _, b := range bounds {
				chunk := scores[prev:b]
				if grown == nil {
					grown, err = NewWithOptions(chunk, Options{SegmentSize: segSize})
				} else {
					grown, err = grown.Append(chunk)
				}
				if err != nil {
					t.Fatal(err)
				}
				prev = b
			}
			assertIndexesEqual(t, fresh, grown, n, segSize)
			// The mixture on the appended index must equal the fresh one.
			w1, _ := fresh.Mixture(0.5, 0.1)
			w2, _ := grown.Mixture(0.5, 0.1)
			for i := range w1 {
				if math.Float64bits(w1[i]) != math.Float64bits(w2[i]) {
					t.Fatalf("segSize=%d splits=%v: mixture weight %d differs", segSize, splits, i)
				}
			}
		}
	}
}

// TestAppendLeavesReceiverUsable: Append must not mutate the old
// index, whose queries keep answering over the pre-append column.
func TestAppendLeavesReceiverUsable(t *testing.T) {
	old, err := NewWithOptions([]float64{0.9, 0.1, 0.5}, Options{SegmentSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := old.Append([]float64{0.7, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 3 || grown.Len() != 5 {
		t.Fatalf("lengths: old %d (want 3), grown %d (want 5)", old.Len(), grown.Len())
	}
	if got := old.CountAtLeast(0.6); got != 1 {
		t.Fatalf("old index CountAtLeast(0.6) = %d, want 1", got)
	}
	if got := grown.CountAtLeast(0.6); got != 2 {
		t.Fatalf("grown index CountAtLeast(0.6) = %d, want 2", got)
	}
	ids := grown.AppendAtLeast(nil, 0.5)
	want := []int{0, 2, 3}
	if len(ids) != len(want) {
		t.Fatalf("grown ids %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("grown ids %v, want %v", ids, want)
		}
	}
}

// TestAppendValidation: invalid appended scores are rejected with the
// offending global record id, and empty appends are errors.
func TestAppendValidation(t *testing.T) {
	ix, err := New([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Append(nil); err == nil {
		t.Error("empty append must be rejected")
	}
	_, err = ix.Append([]float64{0.3, math.NaN()})
	if err == nil {
		t.Fatal("NaN append must be rejected")
	}
	if want := "record 3"; !containsStr(err.Error(), want) {
		t.Errorf("error %q does not name the global offending record (%s)", err, want)
	}
}

// TestBuildValidationReportsFirstOffender: with parallel segment
// builds, the error must still name the smallest offending record id.
func TestBuildValidationReportsFirstOffender(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = 0.5
	}
	scores[93] = 2 // later segment
	scores[11] = -1
	_, err := NewWithOptions(scores, Options{SegmentSize: 10, Parallelism: 4})
	if err == nil {
		t.Fatal("invalid column accepted")
	}
	if want := "record 11"; !containsStr(err.Error(), want) {
		t.Errorf("error %q should report the first offender (%s)", err, want)
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestNegativeZeroNormalized: -0.0 passes range validation (it is not
// < 0) but its sign bit would make the single-segment array lookup and
// the multi-segment bit-space search disagree, and JSON serializes -0
// distinctly. Validation must normalize it so every layout stores and
// returns +0.0.
func TestNegativeZeroNormalized(t *testing.T) {
	negZero := math.Copysign(0, -1)
	scores := []float64{0.5, negZero, 0.25, negZero, 0.75}
	for _, segSize := range []int{len(scores), 2} {
		ix, err := NewWithOptions(scores, Options{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range ix.Scores() {
			if math.Signbit(s) {
				t.Errorf("segSize=%d: stored score %d kept its sign bit", segSize, i)
			}
		}
		if got := ix.KthHighest(len(scores) - 1); math.Signbit(got) {
			t.Errorf("segSize=%d: KthHighest returned -0.0", segSize)
		}
		if got := ix.MinScore(); math.Signbit(got) {
			t.Errorf("segSize=%d: MinScore returned -0.0", segSize)
		}
	}
}

// TestKthHighestBitSearchEdgeCases covers exact endpoints the bit
// search must land on: all-equal columns, 0 and 1 scores, and columns
// whose answer changes across segment boundaries.
func TestKthHighestBitSearchEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
	}{
		{"all-zero", []float64{0, 0, 0, 0, 0}},
		{"all-one", []float64{1, 1, 1, 1}},
		{"endpoints", []float64{0, 1, 0, 1, 0.5}},
		{"tiny", []float64{5e-324, 0, 1e-300, 0.5}},
		{"ties", []float64{0.25, 0.25, 0.25, 0.75, 0.75, 0.5}},
	}
	for _, tc := range cases {
		mono, err := NewWithOptions(tc.scores, Options{SegmentSize: len(tc.scores)})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := NewWithOptions(tc.scores, Options{SegmentSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		for k := -1; k <= len(tc.scores)+1; k++ {
			m, s := mono.KthHighest(k), seg.KthHighest(k)
			if m != s {
				t.Errorf("%s k=%d: %v vs %v", tc.name, k, m, s)
			}
		}
	}
}
