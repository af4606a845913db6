//go:build linux && (amd64 || arm64)

package storage

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mmapSupported gates the zero-copy load path: read-only shared
// mappings with little-endian 64-bit word aliasing. Other platforms
// fall back to heap loads with portable decoding (mmap_off.go).
const mmapSupported = true

// mapFile maps the whole file at path read-only and shared. The file
// descriptor is closed immediately — the mapping survives it. Mappings
// are intentionally never unmapped: indexes and datasets alias the
// memory for unbounded lifetimes (queries may hold them mid-flight
// across an invalidation), and a stray read of an unmapped page is a
// SIGSEGV, not an error. The residency cost of a superseded mapping is
// bounded by operator actions (re-registrations), and the kernel
// reclaims clean pages under pressure anyway.
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 {
		return nil, fmt.Errorf("storage: empty file %s", path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("storage: file %s too large to map", path)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("storage: mmap %s: %w", path, err)
	}
	return b, nil
}

// aliasFloat64s reinterprets little-endian IEEE 754 bytes as a float64
// slice without copying. Safe here because the build tag pins a
// little-endian platform, the caller guarantees 8-byte in-file
// alignment (mappings are page-aligned, sections sit at multiples of
// 8), and len(b) is a multiple of 8.
func aliasFloat64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// aliasInts reinterprets little-endian uint64 bytes as an int slice
// (int is 64-bit on the gated platforms). Values with the high bit set
// surface as negative ints and are rejected by the bounds checks every
// consumer performs.
func aliasInts(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/8)
}
