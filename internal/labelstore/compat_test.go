package labelstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/parent.wal was written by the previous, hand-framed WAL
// implementation running walScenario. It holds cache defs, labels, and
// both tombstone kinds.
const parentWAL = "testdata/parent.wal"

// walScenario drives a store through every WAL record kind: defs,
// labels (including a multi-byte record index), an oracle tombstone, a
// table tombstone, and fresh defs for caches re-created after each.
func walScenario(s *Store) {
	v := s.Cache("video", "oracle")
	for i := 0; i < 6; i++ {
		v.Put(i*7, i%2 == 0)
	}
	s.Cache("audio", "oracle").Put(3, true)
	s.Cache("video", "other").Put(1, false)
	s.InvalidateOracle("other")
	s.Cache("video", "other").Put(2, true)
	s.Cache("audio", "oracle").Put(300, false)
	s.InvalidateTable("audio")
	s.Cache("audio", "oracle").Put(4, true)
	v.Put(1000000, true)
}

// walScenarioState is the live cache state walScenario leaves behind.
var walScenarioState = map[Key]map[int]bool{
	{"video", "oracle"}: {0: true, 7: false, 14: true, 21: false, 28: true, 35: false, 1000000: true},
	{"video", "other"}:  {2: true},
	{"audio", "oracle"}: {4: true},
}

// cacheState snapshots every live cache's labels.
func cacheState(s *Store) map[Key]map[int]bool {
	out := make(map[Key]map[int]bool)
	for k, c := range s.caches {
		m := make(map[int]bool)
		for i := range c.shards {
			for id, v := range c.shards[i].m {
				m[id] = v
			}
		}
		if len(m) > 0 {
			out[k] = m
		}
	}
	return out
}

// copyFixture copies a testdata file into a fresh temp dir.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.wal")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWALParentFileReplays: a log written by the previous WAL
// implementation replays to the scenario's exact cache state, and the
// reopened log keeps appending to it.
func TestWALParentFileReplays(t *testing.T) {
	path := copyFixture(t, parentWAL)
	s := walStore(t, path)
	if got := cacheState(s); !reflect.DeepEqual(got, walScenarioState) {
		t.Fatalf("replayed state %v, want %v", got, walScenarioState)
	}
	// WALReplayed counts every label replay applied, including the 3 a
	// later tombstone killed.
	if st := s.Stats(); st.WALReplayed != 12 || st.WALRecords != 19 {
		t.Fatalf("replayed %d labels from %d frames, want 12 from 19", st.WALReplayed, st.WALRecords)
	}
	s.Cache("video", "oracle").Put(5, true)
	s.Close()
	r := walStore(t, path)
	if v, ok := r.Cache("video", "oracle").Get(5); !ok || !v || r.Len() != 10 {
		t.Fatalf("append to a parent log lost: (%v, %v), %d entries", v, ok, r.Len())
	}
}

// TestWALFramesByteIdentical: the current WAL writes the scenario
// byte-for-byte as the previous implementation did.
func TestWALFramesByteIdentical(t *testing.T) {
	want, err := os.ReadFile(parentWAL)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.wal")
	s := walStore(t, path)
	walScenario(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL bytes diverged from the parent format:\n got %x\nwant %x", got, want)
	}
}

// TestWALStaleRewriteTmpRemoved: a crash mid-compaction leaves the
// rewrite's temp file beside the log; Open removes it and the log
// itself stays authoritative.
func TestWALStaleRewriteTmpRemoved(t *testing.T) {
	path := copyFixture(t, parentWAL)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := walStore(t, path)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale rewrite tmp survived Open")
	}
	if got := cacheState(s); !reflect.DeepEqual(got, walScenarioState) {
		t.Fatalf("state after litter removal %v, want %v", got, walScenarioState)
	}
}
