package core

import (
	"math"
	"testing"

	"supg/internal/dataset"
	"supg/internal/index"
	"supg/internal/oracle"
	"supg/internal/randx"
)

// This file pins two execution details of the read path — the pooled
// scratch arena and index build parallelism — as invisible:
// byte-identical Results at every build-parallelism level, every
// segmentation, and between the arena'd Select path and the nil-arena
// public estimator path.

// TestSelectParallelismByteIdentical is the acceptance sweep: Indices,
// Tau, and OracleCalls must be identical between a one-worker
// monolithic index and indexes built on 2 and 8 workers, at all four
// estimator configs and segment sizes 1/7/1024/n. n is large enough
// that the default gathers span thousands of ids across segments.
func TestSelectParallelismByteIdentical(t *testing.T) {
	const n, budget = 40000, 400
	d := dataset.Beta(randx.New(9090), n, 0.01, 2)
	configs := map[string]Config{
		"SUPG":   DefaultSUPG(),
		"UCI":    DefaultUCI(),
		"UNoCI":  DefaultUNoCI(),
		"Finite": DefaultFinite(),
	}
	mk := func(segSize, par int) *index.ScoreIndex {
		ix, err := index.NewWithOptions(d.Scores(), index.Options{SegmentSize: segSize, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ref := mk(n, 1)
	for _, segSize := range segmentSizes(n) {
		pars := []int{2, 8}
		built := []*index.ScoreIndex{mk(segSize, pars[0]), mk(segSize, pars[1])}
		for name, cfg := range configs {
			for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
				spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: budget}
				seed := uint64(segSize)*31 + 7
				want, err := SelectFrom(randx.New(seed), ref, oracle.NewSimulated(d), spec, cfg)
				if err != nil {
					t.Fatalf("%s/%v monolithic: %v", name, kind, err)
				}
				for i, ix := range built {
					par := pars[i]
					got, err := SelectFrom(randx.New(seed), ix, oracle.NewSimulated(d), spec, cfg)
					if err != nil {
						t.Fatalf("segSize=%d %s/%v par=%d: %v", segSize, name, kind, par, err)
					}
					assertResultsEqual(t, labelFor(n, segSize, name, kind), want, got)
				}
			}
		}
	}
}

// TestSelectArenaMatchesPublicPath pins that routing scratch through
// the pooled arena changes nothing observable: Select (arena'd) must
// equal EstimateTau (nil arena, caller-owned memory) + assemble,
// and repeated Selects — which reuse dirtied slabs and recycled label
// maps — must keep producing the identical Result.
func TestSelectArenaMatchesPublicPath(t *testing.T) {
	const n = 8000
	d := dataset.Beta(randx.New(5151), n, 0.01, 2)
	for name, cfg := range map[string]Config{"SUPG": DefaultSUPG(), "UCI": DefaultUCI()} {
		for _, kind := range []TargetKind{RecallTarget, PrecisionTarget} {
			spec := Spec{Kind: kind, Gamma: 0.9, Delta: 0.05, Budget: 250}

			tr, err := EstimateTau(randx.New(77), d.Scores(),
				oracle.NewBudgeted(oracle.NewSimulated(d), spec.Budget), spec, cfg)
			if err != nil && err != ErrNoPositives {
				t.Fatalf("%s/%v estimate: %v", name, kind, err)
			}
			if err == ErrNoPositives && kind == PrecisionTarget {
				tr.Tau = math.Inf(1)
			}
			want := assemble(d.Scores(), tr)

			for round := 0; round < 3; round++ {
				got, err := Select(randx.New(77), d.Scores(), oracle.NewSimulated(d), spec, cfg)
				if err != nil {
					t.Fatalf("%s/%v round %d: %v", name, kind, round, err)
				}
				assertResultsEqual(t, name, want, got)
			}
		}
	}
}
