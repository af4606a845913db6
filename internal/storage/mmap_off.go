//go:build !(linux && (amd64 || arm64))

package storage

import "fmt"

// mmapSupported is false off linux/{amd64,arm64}: loads go through the
// heap with portable little-endian decoding instead of zero-copy
// aliasing, which requires a known-little-endian 64-bit platform.
const mmapSupported = false

func mapFile(path string) ([]byte, error) {
	return nil, fmt.Errorf("storage: mmap unsupported on this platform")
}

// The alias helpers are unreachable when mmapSupported is false (every
// load decodes instead); they exist so the package compiles.
func aliasFloat64s(b []byte) []float64 { panic("storage: aliasFloat64s without mmap support") }

func aliasInts(b []byte) []int { panic("storage: aliasInts without mmap support") }
