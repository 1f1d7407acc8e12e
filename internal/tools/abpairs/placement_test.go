package main

import (
	"slices"
	"strings"
	"testing"
)

// nmOut is go tool nm output around the hot functions: a closure, a
// method of the same name in another package and a function whose name
// ends in a hot one's must not be taken for them, and scanBlocks is
// missing.
const nmOut = `  6a7300 T pqfastscan/internal/index.(*Index).scanPartition
  6a7460 T pqfastscan/internal/index.(*Index).scanPartition.func1
  699020 T pqfastscan/internal/scan.(*FastScan).ScanNativeInto
  69ad30 T pqfastscan/internal/scan.(*Scratch).bound
  5c1b08 T pqfastscan/internal/scan/model.(*Scratch).bound
  8f2a40 D pqfastscan/internal/scan.(*Scratch).bound.stkobj
  69b0a8 T pqfastscan/internal/scan.(*FastScan).processLive
  69b010 T pqfastscan/internal/scan.(*FastScan).processLive.func1
  69c1e4 T pqfastscan/internal/scan.offer
  69c2c0 T pqfastscan/internal/scan.counteroffer
  5a3310 T pqfastscan/internal/topk.(*Heap).Push
  5a3400 T pqfastscan/internal/topk.(*Heap).PushAll
         U runtime.memmove
`

// TestPlacementReadsNm: each hot function's start address mod 64 comes
// from its own text symbol, -1 when nm lists none; the line names every
// function and says "differs" only when the two trees disagree.
func TestPlacementReadsNm(t *testing.T) {
	got := placement([]byte(nmOut))
	want := []int{0x00, 0x20, -1, 0x30, 0x28, 0x24, 0x10}
	if !slices.Equal(got, want) {
		t.Fatalf("placement %v, want %v", got, want)
	}
	line := placementLine("A", got, got)
	const rest = " scan.(*FastScan).processLive%64=40 scan.offer%64=36 topk.(*Heap).Push%64=16"
	if line != "placement A index.(*Index).scanPartition%64=0 scan.(*FastScan).ScanNativeInto%64=32 scan.(*FastScan).scanBlocks%64=-1 scan.(*Scratch).bound%64=48"+rest {
		t.Fatalf("same placement: %q", line)
	}
	other := slices.Clone(got)
	other[1] = 0
	if line := placementLine("B", other, got); line != "placement B index.(*Index).scanPartition%64=0 scan.(*FastScan).ScanNativeInto%64=0 scan.(*FastScan).scanBlocks%64=-1 scan.(*Scratch).bound%64=48"+rest+" differs" {
		t.Fatalf("different placement: %q", line)
	}
	other = slices.Clone(got)
	other[6] = 0x30
	if line := placementLine("B", other, got); !strings.HasSuffix(line, " topk.(*Heap).Push%64=48 differs") {
		t.Fatalf("placement differing only in Push: %q", line)
	}
}
