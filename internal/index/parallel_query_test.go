package index

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"supg/internal/randx"
)

// Build parallelism (Options.Parallelism) only decides which goroutine
// sorts or verifies each segment, so it must be invisible to every
// query primitive. These tests pin that over a finely segmented index
// (many segments, large gathers) and hammer the shared read path from
// concurrent goroutines.

// parallelTestIndex builds a 32768-record index in 256-record segments
// (128 segments) with the given build parallelism.
func parallelTestIndex(t *testing.T, par int) *ScoreIndex {
	t.Helper()
	scores := tiedScores(99, 1<<15)
	ix, err := NewWithOptions(scores, Options{SegmentSize: 256, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Segments() != 128 {
		t.Fatalf("test index has %d segments, want 128", ix.Segments())
	}
	return ix
}

var parallelTestTaus = []float64{-1, 0, 0.025, 0.3, 0.5, 0.975, 1, 1.5, math.Inf(1), math.Inf(-1)}

// TestParallelCountMatchesSequential pins CountAtLeast and KthHighest
// of indexes built on 2 and 8 workers against the one-worker build.
func TestParallelCountMatchesSequential(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	for _, par := range []int{2, 8} {
		ix := parallelTestIndex(t, par)
		for _, tau := range parallelTestTaus {
			if want, got := ref.CountAtLeast(tau), ix.CountAtLeast(tau); want != got {
				t.Fatalf("par=%d tau=%v: count %d, sequential %d", par, tau, got, want)
			}
		}
		for _, k := range []int{1, 100, ix.Len() / 2, ix.Len()} {
			want, got := ref.KthHighest(k), ix.KthHighest(k)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("par=%d k=%d: KthHighest %v, sequential %v", par, k, got, want)
			}
		}
	}
}

// TestParallelAppendMatchesSequential pins AppendAtLeast of parallel
// builds against the one-worker build, both from a nil dst and
// appending onto a prefilled one (base offsets plus capacity growth).
func TestParallelAppendMatchesSequential(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	for _, par := range []int{2, 8} {
		ix := parallelTestIndex(t, par)
		for _, tau := range parallelTestTaus {
			want := ref.AppendAtLeast(nil, tau)
			got := ix.AppendAtLeast(nil, tau)
			assertSameIDs(t, "fresh dst", par, tau, want, got)

			prefix := []int{-7, -8, -9}
			want = ref.AppendAtLeast(append([]int(nil), prefix...), tau)
			got = ix.AppendAtLeast(append([]int(nil), prefix...), tau)
			assertSameIDs(t, "prefilled dst", par, tau, want, got)

			// Reused capacity: a second gather into the same backing array.
			reuse := make([]int, 0, ix.Len()+8)
			got = ix.AppendAtLeast(ix.AppendAtLeast(reuse, tau)[:0], tau)
			want = ref.AppendAtLeast(nil, tau)
			assertSameIDs(t, "reused dst", par, tau, want, got)
		}
	}
}

func assertSameIDs(t *testing.T, mode string, par int, tau float64, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s par=%d tau=%v: %d ids, sequential %d", mode, par, tau, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s par=%d tau=%v: id[%d] = %d, sequential %d", mode, par, tau, i, got[i], want[i])
		}
	}
}

// TestParallelMixtureMatchesSequential pins the mixture weights and
// alias draws of parallel builds bit-for-bit against the one-worker
// build.
func TestParallelMixtureMatchesSequential(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	for _, par := range []int{2, 8} {
		ix := parallelTestIndex(t, par)
		for _, cfg := range []struct{ exp, mix float64 }{{0.5, 0.1}, {1, 0.5}, {0, 0}, {2, 0.25}} {
			wantW, refA := ref.Mixture(cfg.exp, cfg.mix)
			gotW, gotA := ix.Mixture(cfg.exp, cfg.mix)
			for i := range wantW {
				if math.Float64bits(wantW[i]) != math.Float64bits(gotW[i]) {
					t.Fatalf("par=%d cfg=%v: weight[%d] = %v, sequential %v", par, cfg, i, gotW[i], wantW[i])
				}
			}
			// Draws consume the stream identically, so a fixed seed must
			// yield the same indices either way.
			r1, r2 := randx.New(7), randx.New(7)
			for d := 0; d < 200; d++ {
				if a, b := refA.Draw(r1), gotA.Draw(r2); a != b {
					t.Fatalf("par=%d cfg=%v: draw %d = %d, sequential %d", par, cfg, d, b, a)
				}
			}
		}
	}
}

// TestParallelReductionsRaceStress hammers one shared index from many
// goroutines running counts, gathers, and mixture lookups in parallel,
// each checking byte-identity against precomputed references from a
// separate index. Run under -race this pins that concurrent queries
// share no unsynchronized state on the read path (the mixture cache is
// the only mutable part).
func TestParallelReductionsRaceStress(t *testing.T) {
	ref := parallelTestIndex(t, 1)
	ix := parallelTestIndex(t, 4)

	taus := []float64{0, 0.025, 0.5, 0.975}
	wantCounts := make([]int, len(taus))
	wantIDs := make([][]int, len(taus))
	for i, tau := range taus {
		wantCounts[i] = ref.CountAtLeast(tau)
		wantIDs[i] = ref.AppendAtLeast(nil, tau)
	}
	wantW, _ := ref.Mixture(0.5, 0.1)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				i := (g + iter) % len(taus)
				if got := ix.CountAtLeast(taus[i]); got != wantCounts[i] {
					t.Errorf("goroutine %d: count(%v) = %d, want %d", g, taus[i], got, wantCounts[i])
					return
				}
				ids := ix.AppendAtLeast(nil, taus[i])
				if len(ids) != len(wantIDs[i]) {
					t.Errorf("goroutine %d: %d ids for tau %v, want %d", g, len(ids), taus[i], len(wantIDs[i]))
					return
				}
				for j := range ids {
					if ids[j] != wantIDs[i][j] {
						t.Errorf("goroutine %d: id[%d] = %d, want %d", g, j, ids[j], wantIDs[i][j])
						return
					}
				}
				gotW, _ := ix.Mixture(0.5, 0.1)
				for j := range wantW {
					if math.Float64bits(gotW[j]) != math.Float64bits(wantW[j]) {
						t.Errorf("goroutine %d: weight[%d] diverges", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunCoversEveryIndexOnce pins the build helper: every iteration
// runs exactly once at any worker count, including degenerate ones.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, n)
			run(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers %d n %d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}
