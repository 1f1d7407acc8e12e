package scan

import (
	"fmt"
	"sort"
	"testing"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
)

// groupedFixture lays out, with no keep region, a partition grouped on
// c components whose layout has exactly groups groups: that many
// distinct random keys, one to three random rows each.
func groupedFixture(t *testing.T, r *rng.Source, c, groups int) *FastScan {
	t.Helper()
	var codes []uint8
	for _, key := range r.Perm(1 << (4 * c))[:groups] {
		for n := r.Intn(3) + 1; n > 0; n-- {
			code := make([]uint8, M)
			for j := range code {
				code[j] = uint8(r.Intn(256))
			}
			for j := 0; j < c; j++ {
				nib := key >> (4 * (c - 1 - j)) & 15
				code[j] = uint8(nib<<4) | code[j]&15
			}
			codes = append(codes, code...)
		}
	}
	fs, err := newLayout(NewPartition(codes, nil), FastScanOptions{GroupComponents: c})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fs.Grouped().Groups); got != groups {
		t.Fatalf("fixture c=%d has %d groups, want %d", c, got, groups)
	}
	return fs
}

// TestVisitOrder holds VisitOrder to its definition, computed by brute
// force: a permutation of the groups whose first min(primeGroups, G)
// are the groups of least (key bound, index), ascending, and whose rest
// ascend by index. Minimum tables with few distinct values force ties.
func TestVisitOrder(t *testing.T) {
	r := rng.New(37)
	var dst []int32
	for c := 0; c <= 4; c++ {
		for _, groups := range []int{0, 1, 7, 8, 9, 254} {
			if groups > 1<<(4*c) {
				continue
			}
			for trial := 0; trial < 4; trial++ {
				fs := groupedFixture(t, r, c, groups)
				span := []int{128, 3, 1, 128}[trial]
				var mt [M][16]uint8
				for j := range mt {
					for h := range mt[j] {
						mt[j][h] = uint8(r.Intn(span))
					}
				}
				label := fmt.Sprintf("c=%d groups=%d trial=%d", c, groups, trial)
				gb := NewGroupBounds(&mt, c)
				dst = fs.VisitOrder(&gb, dst)
				checkVisitOrder(t, fs.Grouped().Groups, c, &mt, dst, label)
			}
		}
	}
}

func checkVisitOrder(t *testing.T, groups []layout.Group, c int, mt *[M][16]uint8, got []int32, label string) {
	t.Helper()
	bound := func(gi int) int {
		s := 0
		for j := 0; j < c; j++ {
			s += int(mt[j][groups[gi].Key[j]])
		}
		return s
	}
	byBound := make([]int, len(groups))
	for i := range byBound {
		byBound[i] = i
	}
	sort.SliceStable(byBound, func(a, b int) bool { return bound(byBound[a]) < bound(byBound[b]) })
	primed := byBound[:min(primeGroups, len(groups))]
	want := make([]int32, 0, len(groups))
	seen := make(map[int]bool)
	for _, gi := range primed {
		want = append(want, int32(gi))
		seen[gi] = true
	}
	for gi := range groups {
		if !seen[gi] {
			want = append(want, int32(gi))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups in the order, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: order %v, want %v", label, got, want)
		}
	}
}

// TestPrimedGroupScannedFirst builds a partition whose near rows all sit
// in the last group in key order: component 0's portion 15 is the only
// close one. Visited in key order, the fifteen far groups fill the heap
// and keep re-checking each other before the near group tightens the
// threshold. A scan that visits its least-bounded group first fills the
// heap from the near group, and its threshold then prunes every far
// row: no more candidates than the near group holds, on every backend,
// with the oracle's results.
func TestPrimedGroupScannedFirst(t *testing.T) {
	r := rng.New(41)
	const n, k = 4096, 100
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for i := range tables.Data {
		switch j, e := i/256, i%256; {
		case j == 0 && e >= 15*16:
			tables.Data[i] = r.Float32() * 10
		case j == 0:
			tables.Data[i] = 1000 + r.Float32()*100
		default:
			tables.Data[i] = r.Float32() * 100
		}
	}
	p := NewPartition(codes, nil)
	fs, err := newLayout(p, FastScanOptions{GroupComponents: 1})
	if err != nil {
		t.Fatal(err)
	}
	groups := fs.Grouped().Groups
	near := groups[len(groups)-1]
	if len(groups) != 16 || near.Key[0] != 15 {
		t.Fatalf("fixture: %d groups, last key %d; want 16, 15", len(groups), near.Key[0])
	}
	want, _ := Naive(p, tables, k)
	stats := scanEveryBackend(t, fs, tables, k, want, "naive")
	if stats.Candidates > near.Count {
		t.Fatalf("%d candidates, more than the %d rows of the near group: it was not scanned first",
			stats.Candidates, near.Count)
	}
}
