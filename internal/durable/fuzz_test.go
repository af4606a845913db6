package durable

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// The two formats of the repository's logs: the label WAL and the
// storage MANIFEST.
var fuzzFormats = []Format{
	{CRC: IEEE, MaxFrame: 1 << 20},
	{CRC: Castagnoli, MaxFrame: 8 << 20},
}

// replayAll replays data with an apply that accepts every frame.
func replayAll(t *testing.T, data []byte, format Format) ([][]byte, int64, int64) {
	var got [][]byte
	frames, goodOff, err := Replay(bytes.NewReader(data), format, func(p []byte) bool {
		got = append(got, bytes.Clone(p))
		return true
	})
	if err != nil {
		t.Fatalf("in-memory replay: %v", err)
	}
	return got, frames, goodOff
}

// FuzzLogReplay feeds the frame reader arbitrary bytes under both
// formats: replay must never panic, must stop inside the input, and
// replaying the good prefix alone must give the same frames and offset
// (what Open commits to after truncating the tail).
func FuzzLogReplay(f *testing.F) {
	for _, seed := range []string{
		"../labelstore/testdata/parent.wal",
		"../engine/testdata/legacy-quantized/MANIFEST",
	} {
		b, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-3]) // torn tail
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range fuzzFormats {
			got, frames, goodOff := replayAll(t, data, format)
			if goodOff < 0 || goodOff > int64(len(data)) {
				t.Fatalf("goodOff %d outside [0, %d]", goodOff, len(data))
			}
			if frames != int64(len(got)) {
				t.Fatalf("reported %d frames, applied %d", frames, len(got))
			}
			size := int64(0)
			for _, p := range got {
				size += frameHeader + int64(len(p))
			}
			if size != goodOff {
				t.Fatalf("frames span %d bytes, goodOff %d", size, goodOff)
			}
			again, frames2, off2 := replayAll(t, data[:goodOff], format)
			if frames2 != frames || off2 != goodOff || !reflect.DeepEqual(again, got) {
				t.Fatalf("replay of the good prefix diverged: %d/%d frames, off %d/%d", frames2, frames, off2, goodOff)
			}
		}
	})
}
