// Compresseddb: the paper's §6 generalization beyond ANN search —
// "Among practical uses of lookup tables is query execution in compressed
// databases. [...] For top-k queries, it is possible to build small
// tables enabling computation of lower or upper bounds. Like in PQ Fast
// Scan, lower bounds can then be used to limit L1-cache accesses."
//
// The example models a dictionary-compressed column store: a fact table
// column of float measurements stored as one-byte dictionary codes. A
// top-k smallest query (e.g. "the k cheapest offers") normally decodes
// every row through the 256-entry dictionary; here we build a 16-entry
// minimum table (one entry per 16-code dictionary portion), hold it in a
// modeled SIMD register, and use pshufb lookups + saturated adds to
// lower-bound 16 rows at a time, skipping the dictionary decode for rows
// that cannot enter the top-k.
package main

import (
	"fmt"
	"log"
	"math"
	"slices"
	"sort"

	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd"
)

const (
	nRows    = 1 << 20
	dictSize = 256
	topK     = 50
)

func main() {
	r := rng.New(99)

	// A sorted dictionary (typical for order-preserving dictionary
	// compression) of 256 measurement values.
	dict := make([]float32, dictSize)
	v := float32(0)
	for i := range dict {
		v += float32(r.Float64()*4 + 0.1)
		dict[i] = v
	}

	// The compressed column: skewed code distribution, as in real data.
	codes := make([]uint8, nRows)
	for i := range codes {
		u := r.Float64()
		codes[i] = uint8(math.Min(255, u*u*float64(dictSize)))
	}

	// Baseline: decode every row (one dictionary lookup per row).
	type row struct {
		id  int
		val float32
	}
	exact := topKSmallest(codes, dict)

	// Fast path: quantize the dictionary portion minima into a 16-entry
	// small table held in one 128-bit register. Each row's high nibble
	// indexes its portion; the portion minimum is a lower bound on the
	// row's decoded value.
	qmin := float64(dict[0])
	qmax := float64(dict[dictSize-1])
	delta := (qmax - qmin) / 127
	var small simd.Reg
	for h := 0; h < 16; h++ {
		m := dict[h*16]
		for _, d := range dict[h*16+1 : h*16+16] {
			if d < m {
				m = d
			}
		}
		q := int(math.Floor((float64(m) - qmin) / delta))
		if q > 127 {
			q = 127
		}
		if q < 0 {
			q = 0
		}
		small[h] = uint8(q)
	}

	heap := make([]row, 0, topK)
	threshold := float32(math.Inf(1))
	decodes, prunedBlocks, prunedRows := 0, 0, 0
	var lanes [16]uint8
	for base := 0; base+16 <= nRows; base += 16 {
		// High nibbles of 16 codes -> portion ids -> in-register lookup.
		for l := 0; l < 16; l++ {
			lanes[l] = codes[base+l] >> 4
		}
		idx := simd.Load(lanes[:])
		lb := simd.Pshufb(small, idx)

		// Quantized threshold for the compare (conservative: floor).
		t8 := 127
		if !math.IsInf(float64(threshold), 1) {
			t8 = int(math.Floor((float64(threshold) - qmin) / delta))
			if t8 > 127 {
				t8 = 127
			}
			if t8 < -128 {
				t8 = -128
			}
		}
		mask := simd.PmovmskB(simd.PcmpgtB(lb, simd.Broadcast(uint8(int8(t8)))))
		if mask == 0xffff {
			prunedBlocks++
			prunedRows += 16
			continue
		}
		for l := 0; l < 16; l++ {
			if mask&(1<<l) != 0 {
				prunedRows++
				continue
			}
			decodes++
			val := dict[codes[base+l]]
			if len(heap) < topK {
				heap = append(heap, row{id: base + l, val: val})
				if len(heap) == topK {
					sort.Slice(heap, func(a, b int) bool { return heap[a].val < heap[b].val })
					threshold = heap[topK-1].val
				}
				continue
			}
			if val >= threshold {
				continue
			}
			// Replace the current worst and re-establish the threshold.
			heap[topK-1] = row{id: base + l, val: val}
			sort.Slice(heap, func(a, b int) bool { return heap[a].val < heap[b].val })
			threshold = heap[topK-1].val
		}
	}

	fmt.Printf("rows: %d, top-%d query over a dictionary-compressed column\n", nRows, topK)
	fmt.Printf("dictionary decodes: baseline %d, with in-register lower bounds %d (%.2f%% pruned)\n",
		nRows, decodes, 100*float64(prunedRows)/float64(nRows))
	fmt.Printf("whole 16-row blocks skipped: %d of %d\n", prunedBlocks, nRows/16)

	// Verify the pruned scan found the same top-k values.
	got := make([]float32, len(heap))
	for i, h := range heap {
		got[i] = h.val
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	if !slices.Equal(got, exact) {
		log.Fatalf("top-%d values differ from full decode: %v vs %v", topK, got, exact)
	}
	fmt.Printf("top-%d values identical to full decode: true\n", topK)
}

// topKSmallest decodes every row and returns the k smallest values.
func topKSmallest(codes []uint8, dict []float32) []float32 {
	vals := make([]float32, len(codes))
	for i, c := range codes {
		vals[i] = dict[c]
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return vals[:topK]
}
