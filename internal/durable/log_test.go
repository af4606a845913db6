package durable

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var testFormat = Format{CRC: IEEE, MaxFrame: 64}

// collect opens path and returns the log plus every replayed payload.
func collect(t *testing.T, path string, syncEvery int) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := Open(path, testFormat, syncEvery, func(p []byte) bool {
		got = append(got, bytes.Clone(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, got
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func frames(payloads ...string) [][]byte {
	out := make([][]byte, len(payloads))
	for i, p := range payloads {
		out[i] = []byte(p)
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, got := collect(t, path, 1)
	if len(got) != 0 || l.Frames() != 0 {
		t.Fatalf("fresh log replayed %d frames", len(got))
	}
	appendAll(t, l, "a", "bb", "ccc")
	if l.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", l.Frames())
	}
	// syncEvery=1: every frame is on disk before Append returns.
	if got := fileSize(t, path); got != 3*frameHeader+6 {
		t.Fatalf("file is %d bytes after 3 synced appends", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, path, 1)
	defer l2.Close()
	if !reflect.DeepEqual(got, frames("a", "bb", "ccc")) || l2.Frames() != 3 {
		t.Fatalf("replayed %q (%d frames)", got, l2.Frames())
	}
}

func TestLogFrameLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "xyz")
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{3, 0, 0, 0, 0, 0, 0, 0, 'x', 'y', 'z'}
	c := crc32.ChecksumIEEE([]byte("xyz"))
	want[4], want[5], want[6], want[7] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
	if !bytes.Equal(raw, want) {
		t.Fatalf("frame bytes %x, want %x", raw, want)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "one", "two")
	l.Close()
	good := fileSize(t, path)
	for _, tail := range [][]byte{
		{5, 0, 0},                         // torn header
		{5, 0, 0, 0, 1, 2, 3, 4, 'a'},     // torn payload
		{1, 0, 0, 0, 9, 9, 9, 9, 'a'},     // CRC mismatch
		{0, 0, 0, 0, 0, 0, 0, 0},          // zero length
		{255, 255, 0, 0, 0, 0, 0, 0, 'a'}, // oversized
	} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(tail)
		f.Close()
		l, got := collect(t, path, 1)
		if !reflect.DeepEqual(got, frames("one", "two")) {
			t.Fatalf("tail %x: replayed %q", tail, got)
		}
		if size := fileSize(t, path); size != good {
			t.Fatalf("tail %x: file is %d bytes after open, want %d", tail, size, good)
		}
		l.Close()
	}
	// The truncated log appends after the last good frame.
	l, _ = collect(t, path, 1)
	appendAll(t, l, "three")
	l.Close()
	if _, got := collect(t, path, 1); !reflect.DeepEqual(got, frames("one", "two", "three")) {
		t.Fatalf("after append: %q", got)
	}
}

func TestLogApplyRejectStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "ok", "bad", "after")
	l.Close()
	var got []string
	l, err := Open(path, testFormat, 1, func(p []byte) bool {
		if string(p) == "bad" {
			return false
		}
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !reflect.DeepEqual(got, []string{"ok"}) || l.Frames() != 1 {
		t.Fatalf("replayed %q (%d frames), want [ok]", got, l.Frames())
	}
	if size := fileSize(t, path); size != frameHeader+2 {
		t.Fatalf("rejected frame not truncated: %d bytes", size)
	}
}

func TestLogRejectsBadPayloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := l.Append(make([]byte, testFormat.MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A refused payload touches nothing: the log stays usable.
	appendAll(t, l, "fine")
	if l.Frames() != 1 || fileSize(t, path) != frameHeader+4 {
		t.Fatalf("refused payloads reached the file: %d frames, %d bytes", l.Frames(), fileSize(t, path))
	}
}

func TestLogSyncEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 3)
	appendAll(t, l, "a", "b")
	if size := fileSize(t, path); size != 0 {
		t.Fatalf("unsynced frames reached the file early: %d bytes", size)
	}
	appendAll(t, l, "c", "d")
	if size := fileSize(t, path); size != 3*(frameHeader+1) {
		t.Fatalf("file is %d bytes after the third append", size)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got := collect(t, path, 1); !reflect.DeepEqual(got, frames("a", "b", "c", "d")) {
		t.Fatalf("close lost the unsynced tail: %q", got)
	}
}

func TestLogRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "dead1", "live", "dead2")
	err := l.Rewrite(func(write func([]byte) error) error {
		return write([]byte("live"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Frames() != 1 {
		t.Fatalf("frames after rewrite = %d, want 1", l.Frames())
	}
	appendAll(t, l, "next")
	l.Close()
	if _, got := collect(t, path, 1); !reflect.DeepEqual(got, frames("live", "next")) {
		t.Fatalf("after rewrite: %q", got)
	}
	if _, err := os.Stat(tmpPath(path)); !os.IsNotExist(err) {
		t.Fatal("rewrite left its temp file behind")
	}
}

func TestLogRewriteFailureKeepsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "kept")
	boom := errors.New("emit failed")
	if err := l.Rewrite(func(write func([]byte) error) error {
		if err := write([]byte("partial")); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("rewrite error = %v, want %v", err, boom)
	}
	if err := l.Rewrite(func(write func([]byte) error) error { return write(nil) }); err == nil {
		t.Fatal("rewrite accepted an empty frame")
	}
	if _, err := os.Stat(tmpPath(path)); !os.IsNotExist(err) {
		t.Fatal("failed rewrite left its temp file behind")
	}
	appendAll(t, l, "more")
	l.Close()
	if _, got := collect(t, path, 1); !reflect.DeepEqual(got, frames("kept", "more")) {
		t.Fatalf("after failed rewrites: %q", got)
	}
}

func TestLogRewriteCommitFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "kept")
	// The rename fails (its source vanished) with the log in place: the
	// log stays usable.
	vanish := func(write func([]byte) error) error {
		os.Remove(tmpPath(path))
		return write([]byte("lost"))
	}
	if err := l.Rewrite(vanish); err == nil {
		t.Fatal("rewrite committed a vanished temp file")
	}
	appendAll(t, l, "more")
	if _, got := collect(t, path, 1); !reflect.DeepEqual(got, frames("kept", "more")) {
		t.Fatalf("after a failed commit: %q", got)
	}
	// The path no longer names the handle's file: the log fails stop
	// rather than append to a file nobody will replay.
	os.Remove(path)
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := l.Rewrite(func(write func([]byte) error) error { return write([]byte("new")) })
	if err == nil {
		t.Fatal("rewrite renamed over a directory")
	}
	if again := l.Append([]byte("after")); again != err {
		t.Fatalf("append after a stale-handle commit failure = %v, want %v", again, err)
	}
}

func TestLogStaleTmpRemovedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	appendAll(t, l, "real")
	l.Close()
	if err := os.WriteFile(tmpPath(path), []byte("crashed rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := collect(t, path, 1)
	defer l.Close()
	if !reflect.DeepEqual(got, frames("real")) {
		t.Fatalf("replayed %q", got)
	}
	if _, err := os.Stat(tmpPath(path)); !os.IsNotExist(err) {
		t.Fatal("stale rewrite tmp survived Open")
	}
}

func TestLogClosedAndFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, errClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if err := l.Rewrite(func(func([]byte) error) error { return nil }); !errors.Is(err, errClosed) {
		t.Fatalf("rewrite after close = %v", err)
	}

	// A failed write poisons the log: later appends and Close return
	// the first error instead of writing past a torn frame.
	l, _ = collect(t, path, 1)
	l.f.Close()
	first := l.Append([]byte("lost"))
	if first == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := l.Append([]byte("later")); err != first {
		t.Fatalf("append after failure = %v, want the first error %v", err, first)
	}
	if err := l.Close(); err != first {
		t.Fatalf("close after failure = %v, want %v", err, first)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testFormat, 1, func([]byte) bool { return true }); err == nil {
		t.Fatal("opened a directory as a log")
	}
	if _, err := Open(filepath.Join(dir, "missing", "log"), testFormat, 1, func([]byte) bool { return true }); err == nil {
		t.Fatal("opened a log in a missing directory")
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

func TestReplayReadError(t *testing.T) {
	boom := errors.New("disk error")
	if _, _, err := Replay(failingReader{boom}, testFormat, func([]byte) bool { return true }); !errors.Is(err, boom) {
		t.Fatalf("read error = %v, want %v", err, boom)
	}
	// A clean or mid-frame end of input is a torn tail, not an error.
	if _, _, err := Replay(failingReader{io.EOF}, testFormat, func([]byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	aw, err := NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	aw.Write([]byte("hello "))
	aw.Write([]byte("world"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("file visible before Commit")
	}
	crc, size, err := aw.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if size != 11 || crc != crc32.Checksum([]byte("hello world"), Castagnoli) {
		t.Fatalf("commit reported crc %08x size %d", crc, size)
	}
	if b, _ := os.ReadFile(path); string(b) != "hello world" {
		t.Fatalf("committed %q", b)
	}
	aw.Abort() // no-op after Commit
	if b, _ := os.ReadFile(path); string(b) != "hello world" {
		t.Fatal("Abort after Commit touched the file")
	}

	aw, err = NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	aw.Write([]byte("discarded"))
	aw.Abort()
	if b, _ := os.ReadFile(path); string(b) != "hello world" {
		t.Fatal("aborted write replaced the file")
	}
	if _, err := os.Stat(tmpPath(path)); !os.IsNotExist(err) {
		t.Fatal("Abort left the temp file")
	}
	if _, err := NewAtomicWriter(filepath.Join(dir, "missing", "f")); err == nil {
		t.Fatal("created a temp file in a missing directory")
	}
}

func TestDecoder(t *testing.T) {
	b := AppendString([]byte{7}, "name")
	b = append(b, 0x81, 0x01) // uvarint 129
	d := NewDecoder(b)
	if d.Uvarint() != 7 || d.Str() != "name" || d.Count(200) != 129 || d.Finish("ok") != nil {
		t.Fatal("round trip failed")
	}

	d = NewDecoder([]byte{0x81, 0x01, 3, 'a', 'b', 'c'})
	if d.Count(100) != 0 || d.Finish("c") == nil {
		t.Fatal("count above its limit accepted")
	}
	if d.Str() != "" || d.Uvarint() != 0 {
		t.Fatal("reads after an error returned data")
	}
	if d := NewDecoder([]byte{5, 'a'}); d.Str() != "" || d.Finish("s") == nil {
		t.Fatal("string past the payload end accepted")
	}
	if d := NewDecoder([]byte{0x80}); d.Uvarint() != 0 || d.Finish("u") == nil {
		t.Fatal("truncated uvarint accepted")
	}
	if d := NewDecoder([]byte{1, 2}); d.Uvarint() != 1 || d.Finish("t") == nil {
		t.Fatal("trailing bytes accepted by Finish")
	}
}
