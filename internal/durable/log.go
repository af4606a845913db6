// Package durable is the crash-safe file layer shared by the label
// store's write-ahead log and the storage tier's MANIFEST: one framed
// append log (Log), one tmp→fsync→rename commit (AtomicWriter), and
// one payload codec (AppendString, Decoder). It decides how a durable
// log is framed, replayed, truncated, and atomically rewritten; its
// clients decide only what their records mean.
//
// A log is a sequence of CRC-framed records:
//
//	[4-byte LE payload length][4-byte LE CRC32(payload)][payload]
//
// Each log fixes its CRC table and maximum frame size in a Format, so
// every on-disk file keeps the bytes it has always had: the label WAL
// frames with IEEE and 1 MiB, the MANIFEST with Castagnoli and 8 MiB.
// A torn or corrupt tail — the expected shape of a crash mid-append —
// ends replay at the last whole frame, and Open truncates it.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// CRC tables for Format.CRC.
var (
	IEEE       = crc32.IEEETable
	Castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Format is the framing of one log file: its CRC polynomial and the
// largest payload a frame may carry. Replay treats a longer declared
// length as corruption, and Append refuses to write one.
type Format struct {
	CRC      *crc32.Table
	MaxFrame int
}

const frameHeader = 8

// errClosed is returned by operations on a closed log.
var errClosed = errors.New("durable: log closed")

// Replay reads frames from r in order and hands each payload to apply,
// stopping at the first torn, oversized, or CRC-mismatched frame, or
// the first payload apply rejects (returns false). It reports the
// frames applied and the offset just past the last of them. A read
// error other than a short read is returned: it says nothing about the
// log's contents, so it must not be mistaken for a torn tail. The
// payload slice is reused between calls; apply must copy what it
// keeps.
func Replay(r io.Reader, format Format, apply func(payload []byte) bool) (frames, goodOff int64, err error) {
	br := bufio.NewReader(r)
	var (
		hdr [frameHeader]byte
		buf []byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return frames, goodOff, shortRead(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || uint64(n) > uint64(format.MaxFrame) {
			return frames, goodOff, nil
		}
		buf, err = readPayload(br, buf, int(n))
		if err != nil {
			return frames, goodOff, shortRead(err)
		}
		if crc32.Checksum(buf, format.CRC) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return frames, goodOff, nil
		}
		if !apply(buf) {
			return frames, goodOff, nil
		}
		frames++
		goodOff += frameHeader + int64(n)
	}
}

// readPayload reads n bytes into buf, growing it only as fast as the
// input delivers bytes: a torn frame's length field cannot force an
// allocation larger than the file.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// shortRead maps the end of the input (clean or mid-frame) to nil.
func shortRead(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// Log is the append handle on one framed log file. It is not safe for
// concurrent use; clients serialize calls under their own lock.
// Failures are fail-stop: after a write, flush, or sync error, or a
// rewrite whose reopen failed, every later Append, Rewrite, and Close
// returns that first error — frames written after a torn one would be
// unreachable on replay.
type Log struct {
	path      string
	format    Format
	f         *os.File
	w         *bufio.Writer
	hdr       [frameHeader]byte
	syncEvery int
	unsynced  int
	frames    int64
	err       error
	closed    bool
}

// Open opens the log at path, creating it if absent, replays every
// whole frame through apply (see Replay), truncates and fsyncs away any
// torn tail, and positions the handle to append after the last good
// frame. syncEvery is the fsync cadence of Append (<= 1 = every frame).
// An uncommitted Rewrite temp file left by a crash is removed first.
func Open(path string, format Format, syncEvery int, apply func(payload []byte) bool) (*Log, error) {
	if syncEvery <= 0 {
		syncEvery = 1
	}
	os.Remove(tmpPath(path))
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644) //supg:atomiccommit-ok the framed log is its own commit path: frames are CRC-framed and fsynced per the sync policy, and replay truncates a torn tail
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, format: format, f: f, syncEvery: syncEvery}
	if err := l.restore(apply, created); err != nil {
		f.Close()
		return nil, err
	}
	l.w = bufio.NewWriter(f)
	return l, nil
}

// restore replays the file, drops the torn tail durably, and seeks to
// the append position.
func (l *Log) restore(apply func([]byte) bool, created bool) error {
	frames, goodOff, err := Replay(l.f, l.format, apply)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	l.frames = frames
	fi, err := l.f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() > goodOff {
		if err := l.f.Truncate(goodOff); err != nil {
			return fmt.Errorf("truncate torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if created {
		if err := syncDir(filepath.Dir(l.path)); err != nil {
			return err
		}
	}
	_, err = l.f.Seek(goodOff, io.SeekStart)
	return err
}

// Append writes one frame and applies the sync policy: at syncEvery=1
// that is one buffered write, one flush, and one fsync per frame. An
// empty or oversized payload is refused without touching the file.
func (l *Log) Append(payload []byte) error {
	if err := l.usable(); err != nil {
		return err
	}
	if err := l.format.header(&l.hdr, payload); err != nil {
		return err
	}
	if _, err := l.w.Write(l.hdr[:]); err != nil {
		return l.fail(err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return l.fail(err)
	}
	l.frames++
	l.unsynced++
	if l.unsynced >= l.syncEvery {
		return l.sync()
	}
	return nil
}

// Rewrite atomically replaces the log with the frames emit passes to
// write: they stream into a temp file that is fsynced, renamed over the
// log, and made durable with a directory fsync (see AtomicWriter), and
// the handle then appends to the new file. Frames appended but not yet
// synced before the call are discarded with the old file — emit is
// expected to write the complete live state. On an error before the
// rename the old log is untouched and still usable; after it, the log
// fails stop.
func (l *Log) Rewrite(emit func(write func(payload []byte) error) error) error {
	if err := l.usable(); err != nil {
		return err
	}
	aw, err := NewAtomicWriter(l.path)
	if err != nil {
		return err
	}
	var (
		hdr    [frameHeader]byte
		frames int64
	)
	write := func(payload []byte) error {
		if err := l.format.header(&hdr, payload); err != nil {
			return err
		}
		if _, err := aw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := aw.Write(payload)
		frames++
		return err
	}
	if err := emit(write); err != nil {
		aw.Abort()
		return err
	}
	if _, _, err := aw.Commit(); err != nil {
		// Commit can fail after its rename, on the directory fsync. The
		// handle's file is then no longer the log: stop appending.
		cur, curErr := l.f.Stat()
		now, nowErr := os.Stat(l.path)
		if curErr != nil || nowErr != nil || !os.SameFile(cur, now) {
			return l.fail(err)
		}
		return err
	}
	// The rename is committed: the old handle now points at the
	// replaced file, so failing to reopen leaves nothing to append to.
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return l.fail(fmt.Errorf("reopen after rewrite: %w", err))
	}
	l.f.Close()
	l.f = f
	l.w.Reset(f)
	l.frames = frames
	l.unsynced = 0
	return nil
}

// Frames returns the number of frames in the file.
func (l *Log) Frames() int64 { return l.frames }

// Close flushes and fsyncs any unsynced frames and closes the file.
// Idempotent; returns the first failure the log recorded.
func (l *Log) Close() error {
	if l.closed {
		return l.err
	}
	l.closed = true
	if l.err == nil && l.unsynced > 0 {
		l.sync()
	}
	if err := l.f.Close(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

func (l *Log) usable() error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errClosed
	}
	return nil
}

func (l *Log) sync() error {
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.unsynced = 0
	return nil
}

// fail records the log's first failure and returns it.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// header fills hdr with payload's frame header, refusing payloads
// replay would reject.
func (f Format) header(hdr *[frameHeader]byte, payload []byte) error {
	if len(payload) == 0 || len(payload) > f.MaxFrame {
		return fmt.Errorf("durable: %d-byte frame outside (0, %d]", len(payload), f.MaxFrame)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, f.CRC))
	return nil
}
