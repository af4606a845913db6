package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriter streams a file body through a buffered writer and a
// running CRC32 (Castagnoli), then commits it with fsync + atomic
// rename + directory fsync. Callers write everything, then Commit; a
// crash before the rename leaves only the temp file (path + ".tmp"),
// never a partial file at path.
type AtomicWriter struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	crc  hash.Hash32
	size int64
	w    io.Writer
}

// tmpPath is where an AtomicWriter stages the file for path.
func tmpPath(path string) string { return path + ".tmp" }

// NewAtomicWriter creates (truncating) the temp file for path.
func NewAtomicWriter(path string) (*AtomicWriter, error) {
	f, err := os.OpenFile(tmpPath(path), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644) //supg:atomiccommit-ok AtomicWriter IS the tmp→fsync→rename helper; this opens its tmp side
	if err != nil {
		return nil, err
	}
	aw := &AtomicWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16), crc: crc32.New(Castagnoli)}
	aw.w = io.MultiWriter(aw.bw, aw.crc)
	return aw, nil
}

func (aw *AtomicWriter) Write(p []byte) (int, error) {
	n, err := aw.w.Write(p)
	aw.size += int64(n)
	return n, err
}

// Commit flushes, fsyncs, and renames the temp file into place, then
// fsyncs the directory so the rename itself is durable. It returns the
// CRC32 (Castagnoli) and size of the committed bytes. On any error the
// temp file is removed.
func (aw *AtomicWriter) Commit() (crc uint32, size int64, err error) {
	tmp := aw.f.Name()
	defer func() {
		if err != nil {
			aw.f.Close()
			os.Remove(tmp)
		}
	}()
	if err = aw.bw.Flush(); err != nil {
		return 0, 0, err
	}
	if err = aw.f.Sync(); err != nil {
		return 0, 0, err
	}
	if err = aw.f.Close(); err != nil {
		return 0, 0, err
	}
	if err = os.Rename(tmp, aw.path); err != nil { //supg:atomiccommit-ok AtomicWriter.Commit's rename: the tmp file was flushed, fsynced, and closed above
		return 0, 0, err
	}
	if err = syncDir(filepath.Dir(aw.path)); err != nil {
		return 0, 0, err
	}
	return aw.crc.Sum32(), aw.size, nil
}

// Abort discards the temp file (no-op after a successful Commit).
func (aw *AtomicWriter) Abort() {
	aw.f.Close()
	os.Remove(aw.f.Name())
}

// syncDir fsyncs a directory so that renames and creates within it are
// durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// AppendString appends a uvarint length prefix followed by the bytes
// of s — the string encoding of every record payload.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder is a cursor over a record payload. The first error sticks:
// every later read returns a zero value, so a record decodes as a
// straight-line sequence of reads followed by one Finish check.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a cursor over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Uvarint consumes one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count consumes a uvarint bounded by limit, for counts used to size
// allocations or index files.
func (d *Decoder) Count(limit uint64) int {
	v := d.Uvarint()
	if d.err == nil && v > limit {
		d.err = fmt.Errorf("count %d exceeds limit %d", v, limit)
		return 0
	}
	return int(v)
}

// Str consumes a length-prefixed string (see AppendString).
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Finish requires the payload to be fully consumed with no error; kind
// names the record in the returned error.
func (d *Decoder) Finish(kind string) error {
	if d.err != nil {
		return fmt.Errorf("%s record: %w", kind, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%s record: %d trailing bytes", kind, len(d.b))
	}
	return nil
}
