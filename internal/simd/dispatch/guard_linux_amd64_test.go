package dispatch

import (
	"bytes"
	"math/rand"
	"syscall"
	"testing"
)

// guardedPage maps three pages, the first and last PROT_NONE, and
// returns the middle one: a load one byte before or after it faults.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	ps := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[:ps], mem[2*ps:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	return mem[ps : 2*ps : 2*ps]
}

// TestKernelsStayInsideBlocks runs each block kernel this machine has on
// groups placed against an unmapped page: the last block ending where
// the page beyond it begins, and the first block starting where the
// page before it ends. A kernel that loads one byte outside the blocks
// it is given faults, and the test binary dies with "unexpected fault
// address", where an ordinary Go allocation would let the overread pass
// unnoticed. Every depth c = 0…4 meets every block count
// 1…9 (the four-block loop, its tail, the AVX2 pair loop and its odd
// block), and the results are held to the generic kernels.
func TestKernelsStayInsideBlocks(t *testing.T) {
	if !AVX2.Available() {
		t.Skip("no assembly backend on this machine")
	}
	page := guardedPage(t)
	r := rand.New(rand.NewSource(5))
	var rows [8][256]uint8
	var key [4]uint8
	randomRows(r, &rows, &key)
	var tables [128]byte
	for i := range tables {
		tables[i] = uint8(r.Intn(128))
	}
	// each runs kernel on nblocks blocks at the page's end and at its
	// start, against generic.
	each := func(t *testing.T, kernel, generic func(blocks []byte, blockBytes, c, nblocks int, dst []byte, masks []uint16)) {
		for c := 0; c <= 4; c++ {
			bb := 128 - 8*c
			for nblocks := 1; nblocks <= 9; nblocks++ {
				n := nblocks * bb
				for _, blocks := range [][]byte{page[len(page)-n:], page[:n:n]} {
					r.Read(blocks)
					want, wantMasks := make([]byte, nblocks*16), make([]uint16, nblocks)
					got, gotMasks := make([]byte, nblocks*16), make([]uint16, nblocks)
					generic(blocks, bb, c, nblocks, want, wantMasks)
					kernel(blocks, bb, c, nblocks, got, gotMasks)
					if !bytes.Equal(got, want) {
						t.Fatalf("c=%d nblocks=%d: bytes %x, generic %x", c, nblocks, got, want)
					}
					for b := range wantMasks {
						if gotMasks[b] != wantMasks[b] {
							t.Fatalf("c=%d nblocks=%d block=%d: mask %016b, generic %016b", c, nblocks, b, gotMasks[b], wantMasks[b])
						}
					}
				}
			}
		}
	}
	const thr = 63
	if AVX512VBMI.Available() {
		t.Run(AVX512VBMI.String(), func(t *testing.T) {
			each(t, func(blocks []byte, bb, c, nb int, dst []byte, masks []uint16) {
				AccumulateExact(blocks, bb, c, nb, thr, &key, &rows, dst, masks)
			}, func(blocks []byte, bb, c, nb int, dst []byte, masks []uint16) {
				AccumulateExactGeneric(blocks, bb, c, nb, thr, &key, &rows, dst, masks)
			})
		})
	}
	t.Run(AVX2.String(), func(t *testing.T) {
		each(t, func(blocks []byte, bb, c, nb int, dst []byte, masks []uint16) {
			Accumulate(blocks, bb, c, nb, thr, &tables, dst, masks)
		}, func(blocks []byte, bb, c, nb int, dst []byte, masks []uint16) {
			AccumulateGeneric(blocks, bb, c, nb, thr, &tables, dst, masks)
		})
	})
}
