package index

import (
	"fmt"
	"testing"

	"supg/internal/benchtool"
	"supg/internal/randx"
)

// Benchmarks for the one-time index costs the segmented layout
// attacks: full builds at varying parallelism (registration latency)
// and incremental appends versus from-scratch rebuilds. Run with:
//
//	go test ./internal/index -bench 'IndexBuild|IndexAppend' -benchmem
//
// On a multi-core machine BenchmarkIndexBuild/par=8 should beat
// par=1 by >= 2x at n = 10^6 (segments sort independently); on a
// single-core runner the variants converge, but the segmented sort is
// still O(n log S) work versus the monolithic O(n log n).
//
// benchBuildN scales down via SUPG_BENCH_N for the CI bench smoke.
var benchBuildN = benchtool.N(1_000_000)

func benchScores(n int) []float64 {
	r := randx.New(1701)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = r.Float64()
	}
	return scores
}

func BenchmarkIndexBuild(b *testing.B) {
	scores := benchScores(benchBuildN)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := NewWithOptions(scores, Options{SegmentSize: 128 << 10, Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				if ix.Len() != benchBuildN {
					b.Fatal("bad build")
				}
			}
		})
	}
	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := NewWithOptions(scores, Options{SegmentSize: benchBuildN, Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != benchBuildN {
				b.Fatal("bad build")
			}
		}
	})
}

// BenchmarkPermScan prices the dense AppendAtLeast scan — the paper's
// "extract everything above tau" step at an unselective threshold,
// which walks every record of the float column. It does not allocate
// (dst capacity is reused). The sub-benchmark keeps its historical
// "float" name so the committed BENCH_hotpath.json baseline still
// matches it.
func BenchmarkPermScan(b *testing.B) {
	scores := benchScores(benchBuildN)
	const tau = 0.25 // ~75% of a uniform column matches: the dense path
	b.Run("float", func(b *testing.B) {
		ix, err := NewWithOptions(scores, Options{})
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]int, 0, ix.CountAtLeast(tau))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = ix.AppendAtLeast(dst[:0], tau)
			if len(dst) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkIndexAppend prices appending one 256k-record segment to an
// n=10^6 table against re-registering (rebuilding) the combined
// column — the acceptance target is append >= 4x cheaper.
func BenchmarkIndexAppend(b *testing.B) {
	const extraN = 256 << 10
	scores := benchScores(benchBuildN + extraN)
	base, err := NewWithOptions(scores[:benchBuildN], Options{SegmentSize: DefaultSegmentSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := base.Append(scores[benchBuildN:])
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != len(scores) {
				b.Fatal("bad append")
			}
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := NewWithOptions(scores, Options{SegmentSize: DefaultSegmentSize})
			if err != nil {
				b.Fatal(err)
			}
			if ix.Len() != len(scores) {
				b.Fatal("bad rebuild")
			}
		}
	})
}
