package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"supg/internal/engine"
	"supg/internal/oracle"
	"supg/internal/server"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Trace (the op index; -1 when a span cannot be attributed, as
// for oracle calls); Parent is the id (slice position) of the span that
// caused it, -1 for roots.
type span struct {
	Name    string `json:"name"`
	Trace   int    `json:"trace"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only the nil checks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (-1 on a nil tracer).
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Trace: trace, Parent: parent,
		StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// since records a root span from start to now and returns its length.
func (t *tracer) since(name string, trace int, start time.Time) time.Duration {
	end := time.Now()
	t.add(name, trace, -1, start, end)
	return end.Sub(start)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// oracleProbe is installed through Engine().WrapOracle as the outermost
// oracle wrapper: it counts every UDF attempt and, while a tracer is
// attached, times each one.
type oracleProbe struct {
	calls  atomic.Int64
	busyNS atomic.Int64
	tracer atomic.Pointer[tracer]
}

func (p *oracleProbe) wrap(inner engine.OracleUDF) engine.OracleUDF {
	return func(i int) (bool, error) {
		p.calls.Add(1)
		t := p.tracer.Load()
		if t == nil {
			return inner(i)
		}
		start := time.Now()
		v, err := inner(i)
		end := time.Now()
		p.busyNS.Add(int64(end.Sub(start)))
		t.add("oracle.call", -1, -1, start, end)
		return v, err
	}
}

// instrumentOracle installs the workload's seeded fault injection and
// then the probe on the table's oracle UDF.
func instrumentOracle(srv *server.Server, w workload, seed uint64, p *oracleProbe) error {
	name := table + "_oracle"
	if w.ChaosRate > 0 {
		ok := srv.Engine().WrapOracle(name, func(inner engine.OracleUDF) engine.OracleUDF {
			ch := oracle.NewChaos(oracle.Func(inner), oracle.ChaosOptions{Seed: seed, FailureRate: w.ChaosRate})
			return ch.Label
		})
		if !ok {
			return fmt.Errorf("oracle %q not registered", name)
		}
	}
	if !srv.Engine().WrapOracle(name, p.wrap) {
		return fmt.Errorf("oracle %q not registered", name)
	}
	return nil
}
