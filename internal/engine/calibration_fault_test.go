package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"supg/internal/oracle"
)

// faultOnce makes the engine's oracle UDF fail transiently on its
// failAt-th invocation only, and returns the invocation counter.
func faultOnce(e *Engine, truth func(int) bool, failAt int64) *atomic.Int64 {
	var calls atomic.Int64
	e.RegisterOracle("video_oracle", func(i int) (bool, error) {
		if calls.Add(1) == failAt {
			return false, oracle.Transient(errors.New("oracle backend blip"))
		}
		return truth(i), nil
	})
	return &calls
}

// TestCalibrationTransientFault covers FUSE ... CALIBRATE under a
// transient oracle fault in the middle of calibration. With retries
// configured, the calibration oracle goes through the same resilience
// layer as query oracles, so the query succeeds. Without retries the
// query fails, but the failure is not cached: the next query rebuilds
// the fused index, calls the oracle again, and answers exactly like a
// fault-free engine.
func TestCalibrationTransientFault(t *testing.T) {
	base, _, _ := fusedEngine(t, Options{})
	want, err := base.Execute(fusedLogisticRT)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("retried", func(t *testing.T) {
		e, d, _ := fusedEngine(t, Options{OracleRetries: 5, OracleBackoff: time.Nanosecond})
		faultOnce(e, d.TrueLabel, 10)
		got, err := e.Execute(fusedLogisticRT)
		if err != nil {
			t.Fatalf("calibrated query failed despite retries: %v", err)
		}
		sameResult(t, "retried calibration", want, got)
		if b := e.Breaker("video_oracle"); b == nil || b.State() != oracle.BreakerClosed {
			t.Fatalf("calibration oracle bypassed the shared breaker (or tripped it): %v", b)
		}
	})

	t.Run("not-cached", func(t *testing.T) {
		e, d, _ := fusedEngine(t, Options{})
		calls := faultOnce(e, d.TrueLabel, 10)
		if _, err := e.Execute(fusedLogisticRT); err == nil {
			t.Fatal("calibration fault without retries did not fail the query")
		}
		before := calls.Load()
		got, err := e.Execute(fusedLogisticRT)
		if err != nil {
			t.Fatalf("query after a transient calibration fault: %v", err)
		}
		if calls.Load() == before {
			t.Fatal("second query served the cached error without calling the oracle")
		}
		sameResult(t, "recalibrated", want, got)
		if hits := e.LabelStore().Stats().Hits; hits == 0 {
			t.Fatal("rebuild re-bought the calibration labels bought before the fault")
		}
	})
}
