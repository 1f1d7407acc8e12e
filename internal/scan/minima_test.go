package scan

import (
	"math"
	"slices"
	"testing"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// tableMinima is the fold KeepBounds read its bounds from before
// WindowMinima: the smallest entry across all tables and the row
// minima summed in j = 0..7 order, one `if v < m` branch per entry.
// It is the reference WindowMinima.Bounds is held to.
func tableMinima(t quantizer.Tables) (entry, sum float32) {
	entry = t.Data[0]
	for j := 0; j < M; j++ {
		row := t.Row(j)
		m := row[0]
		for _, v := range row[1:] {
			if v < m {
				m = v
			}
		}
		if m < entry {
			entry = m
		}
		sum += m
	}
	return entry, sum
}

// minTable is the fold the minimum tables of the ungrouped rows came
// from before WindowMinima: the 16 portion minima of one row, each
// found with a branch per entry, quantized. The reference for
// BuildMinTables.
func minTable(row []float32, dq DistQuantizer) [16]uint8 {
	var mt [16]uint8
	for h := range mt {
		m := row[h*16]
		for _, v := range row[h*16+1 : h*16+16] {
			if v < m {
				m = v
			}
		}
		mt[h] = dq.Quantize(m)
	}
	return mt
}

// windowMinima returns the least entry of each 16-entry window of a
// quantized row: what a group with key h can take on that component.
func windowMinima(q *[256]uint8) [16]uint8 {
	var mt [16]uint8
	for h := range mt {
		mt[h] = slices.Min(q[h*16 : h*16+16])
	}
	return mt
}

// minTablesOf returns the minimum tables of t under dq, as a scan
// builds them.
func minTablesOf(t quantizer.Tables, dq DistQuantizer) [M][16]uint8 {
	var w WindowMinima
	w.Fill(t)
	return BuildMinTables(&w, dq)
}

// minimaTables builds distance tables whose rows stress a minimum:
// magnitudes from 1e-30 to 1e30, values drawn from a set of three (so
// ties everywhere), +0 and −0 mixed with positives, all-zero rows of
// both signs, and negative-shifted rows.
func minimaTables(r *rng.Source) quantizer.Tables {
	t := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	negZero := float32(math.Copysign(0, -1))
	for j := 0; j < M; j++ {
		row := t.Row(j)
		scale := float32(math.Pow(10, float64(r.Intn(61)-30)))
		switch r.Intn(5) {
		case 0: // one magnitude, continuous
			for i := range row {
				row[i] = r.Float32() * scale
			}
		case 1: // three values: ties in most windows
			vals := [3]float32{r.Float32() * scale, r.Float32() * scale, r.Float32() * scale}
			for i := range row {
				row[i] = vals[r.Intn(3)]
			}
		case 2: // zeros of both signs among positives
			for i := range row {
				switch r.Intn(3) {
				case 0:
					row[i] = 0
				case 1:
					row[i] = negZero
				default:
					row[i] = r.Float32() * scale
				}
			}
		case 3: // all zero, signs mixed
			for i := range row {
				if r.Intn(2) == 0 {
					row[i] = negZero
				}
			}
		default: // negative-shifted
			for i := range row {
				row[i] = (r.Float32() - 0.5) * scale
			}
		}
	}
	return t
}

// TestWindowMinimaMatchFolds holds the one branch-free minima pass to
// the folds it replaced: every window minimum compares == to the
// branchy fold's, every minimum-table byte is the byte minTable
// quantized (and the least byte of the quantized window), and qmin and
// the least distance compare == to tableMinima's, under quantizers
// spanning the whole table and a fraction of it.
func TestWindowMinimaMatchFolds(t *testing.T) {
	r := rng.New(20261017)
	for trial := 0; trial < 500; trial++ {
		tables := minimaTables(r)
		var w WindowMinima
		w.Fill(tables)
		for j := 0; j < M; j++ {
			row := tables.Row(j)
			for h := 0; h < 16; h++ {
				if got, want := w[j][h], slices.Min(row[h*16:h*16+16]); got != want {
					t.Fatalf("trial %d: window [%d][%d] minimum %v, fold %v", trial, j, h, got, want)
				}
			}
		}
		qmin, least := w.Bounds()
		wantMin, wantLeast := tableMinima(tables)
		if qmin != wantMin || least != wantLeast {
			t.Fatalf("trial %d: bounds (%v, %v), folds (%v, %v)", trial, qmin, least, wantMin, wantLeast)
		}
		for _, qmax := range []float32{tables.MaxSum(), qmin + (tables.MaxSum()-qmin)*r.Float32()} {
			dq := NewDistQuantizer(qmin, qmax)
			mt := BuildMinTables(&w, dq)
			for j := 0; j < M; j++ {
				if want := minTable(tables.Row(j), dq); mt[j] != want {
					t.Fatalf("trial %d qmax %v: min table %d %v, fold %v", trial, qmax, j, mt[j], want)
				}
				var q [256]uint8
				for i, v := range tables.Row(j) {
					q[i] = dq.Quantize(v)
				}
				if wm := windowMinima(&q); mt[j] != wm {
					t.Fatalf("trial %d qmax %v: min table %d %v, quantized windows' minima %v", trial, qmax, j, mt[j], wm)
				}
			}
		}
	}
}

// TestGroupBoundBelowLanes holds GroupBounds to the claim the group
// skip rests on: over random layouts at every depth, random quantized
// rows and minimum tables, min(bound, 127) is at most every lane byte
// dispatch.AccumulateGeneric computes for the group — padding lanes
// included — and whenever Prunes says a group is pruned at a threshold,
// the kernel masks out every lane of every block of it at that
// threshold.
func TestGroupBoundBelowLanes(t *testing.T) {
	r := rng.New(39)
	for c := 0; c <= layout.MaxGroupComponents; c++ {
		for trial := 0; trial < 8; trial++ {
			fs := groupedFixture(t, r, c, min(1<<(4*c), 40))
			g := fs.Grouped()
			entryMax := []int{8, 24, 128}[trial%3]
			var qrows [layout.MaxGroupComponents][256]uint8
			var mt [M][16]uint8
			for j := 0; j < c; j++ {
				for i := range qrows[j] {
					qrows[j][i] = uint8(r.Intn(entryMax))
				}
				mt[j] = windowMinima(&qrows[j])
			}
			for j := c; j < M; j++ {
				for h := range mt[j] {
					mt[j][h] = uint8(r.Intn(entryMax))
				}
			}
			gb := NewGroupBounds(&mt, c)
			bb := g.BlockSize()
			for gi := range g.Groups {
				grp := &g.Groups[gi]
				var tb [128]uint8
				for j := 0; j < c; j++ {
					copy(tb[j*16:], qrows[j][int(grp.Key[j])*16:int(grp.Key[j])*16+16])
				}
				for j := c; j < M; j++ {
					copy(tb[j*16:], mt[j][:])
				}
				nb := grp.BlockCount
				blocks := g.Blocks[grp.BlockStart*bb : (grp.BlockStart+nb)*bb]
				bound := gb.bound(&grp.Key)
				acc, masks := make([]uint8, 16*nb), make([]uint16, nb)
				dispatch.AccumulateGeneric(blocks, bb, c, nb, 127, &tb, acc, masks)
				for i, b := range acc {
					if min(bound, 127) > uint32(b) {
						t.Fatalf("c=%d group %d lane %d: bound %d above the lane's byte %d", c, gi, i, bound, b)
					}
				}
				for _, t8 := range []int8{-128, -1, 0, int8(min(bound, 126)), int8(min(bound, 127)) - 1, 126, 127} {
					if !gb.Prunes(&grp.Key, t8) {
						continue
					}
					dispatch.AccumulateGeneric(blocks, bb, c, nb, t8, &tb, acc, masks)
					for b, m := range masks {
						if m != 0xffff {
							t.Fatalf("c=%d group %d t8=%d bound %d: pruned whole, but block %d mask %016b", c, gi, t8, bound, b, m)
						}
					}
				}
			}
		}
	}
}

// TestGroupSkipBoundary is the edge of the group test: a group whose
// bound equals the entry threshold exactly, t8 = 126 (the clamp that
// lets saturated lanes prune), and holds the one true neighbour, whose
// lane byte is that bound. A lane at t8 is not pruned, so the group
// must be bounded and the neighbour returned on every backend; a test
// of bound >= t8 would skip it.
//
// Every entry is qmin + q with qmin = 2^-10 and q an integer, and the
// carried heap's one distance is qmax = 127 + 2^-10, so the quantizer's
// bin is exactly 1 and entry q quantizes to q. Rows 1..7 are 16
// throughout (floor 112); row 0 puts 14 at lane 3 of portion 5, 20
// elsewhere in it, 0 at the head of portion 0 (qmin) and 30 elsewhere.
// Group 5's bound is 14 + 112 = 126, its lane with low nibble 3 sums to
// 126 + 8·2^-10 < qmax, and every other lane (group 0 included, bound
// 112) sums past qmax.
func TestGroupSkipBoundary(t *testing.T) {
	const q0 = 1.0 / 1024
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for i := range tables.Data {
		tables.Data[i] = q0 + 16
	}
	row0 := tables.Row(0)
	for i := range row0 {
		row0[i] = q0 + 30
	}
	row0[0] = q0
	for i := 5 * 16; i < 6*16; i++ {
		row0[i] = q0 + 20
	}
	row0[5*16+3] = q0 + 14

	r := rng.New(126)
	var codes []uint8
	for i := 0; i < 200; i++ {
		code := make([]uint8, M)
		for j := range code {
			code[j] = uint8(r.Intn(256))
		}
		code[0] = []uint8{0x01, 0x5f, 0x50}[i%3] // groups 0 and 5, never lane 0 of 0 nor 3 of 5
		codes = append(codes, code...)
	}
	codes[100*M] = 0x53 // the neighbour, row 100
	p := NewPartition(codes, nil)
	fs, err := newLayout(p, FastScanOptions{GroupComponents: 1})
	if err != nil {
		t.Fatal(err)
	}
	const qmax, far = 127 + q0, int64(1 << 40)
	for _, be := range dispatch.AvailableBackends() {
		heap := topk.New(1)
		heap.Push(far, qmax)
		st := fs.ScanNativeInto(tables, heap, nil, be)
		got := heap.Results()
		if len(got) != 1 || got[0].ID != 100 || got[0].Distance != 126+8*q0 {
			t.Fatalf("%v: got %+v, want row 100 at %v (%+v)", be, got, 126+8*q0, st)
		}
		if st.Groups != 2 || st.Candidates != 1 {
			t.Fatalf("%v: want both groups bounded and one candidate: %+v", be, st)
		}
	}
}
