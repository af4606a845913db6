package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestEveryMetricEmitted runs every workload at tiny scale, untraced
// and traced, and checks that each run is correct and reports every
// metric the final JSON line names.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, w := range workloads(true) {
		for _, trace := range []bool{false, true} {
			cfg := config{w: w, seed: 3, seconds: time.Second, trace: trace, dir: t.TempDir()}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.failures) > 0 {
				t.Errorf("%s trace=%v: checks failed: %s", name, trace, shortList(out.failures, 5))
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := out.metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				}
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, out.attempted, out.failed)
			}
		}
	}
}

// TestOpsFollowSeed checks that the same seed yields the same operation
// sequence and a different seed a different one.
func TestOpsFollowSeed(t *testing.T) {
	for name, w := range workloads(true) {
		ops := func(seed uint64) []op {
			in, _, err := generate(config{w: w, seed: seed}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return in.ops
		}
		a, b, c := ops(1), ops(1), ops(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
	}
}

// TestParseIDs checks the hand-written id-list parser the client uses
// instead of decoding multi-megabyte lists.
func TestParseIDs(t *testing.T) {
	h, n, err := parseIDs([]byte("0,5,17"), 18)
	if err != nil || n != 3 {
		t.Fatalf("parseIDs: %d ids, err %v", n, err)
	}
	if want := idsHashStep(idsHashStep(idsHashStep(idsHashSeed, 0), 5), 17); h != want {
		t.Errorf("hash %x, want %x", h, want)
	}
	for _, bad := range []string{"3,2", "1,,2", "1,x", "18", "-1"} {
		if _, _, err := parseIDs([]byte(bad), 18); err == nil {
			t.Errorf("parseIDs(%q) accepted", bad)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run reports in
// step with the names and units BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	out, err := run(config{w: workloads(true)["append-mixed"], seed: 1, seconds: time.Second, trace: true, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		emitted  []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Errorf("BENCHMARK.json declares %d metrics, the run emits %d", len(c.declared), len(c.emitted))
			continue
		}
		for i, d := range c.declared {
			if m, ok := out.metrics[d.Name]; d.Name != c.emitted[i] || !ok || m.Unit != d.Unit {
				t.Errorf("metric %d: declared %s [%s], emitted %s [%s]", i, d.Name, d.Unit, c.emitted[i], m.Unit)
			}
		}
	}
}

// shortList trims a failure list for printing.
func shortList(fs []string, n int) string {
	if len(fs) <= n {
		return strings.Join(fs, "; ")
	}
	return strings.Join(fs[:n], "; ") + fmt.Sprintf("; ... %d more", len(fs)-n)
}
