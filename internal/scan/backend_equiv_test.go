package scan

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
)

// sameStats asserts two native backends walked the exact same path:
// every counter equal and Ops empty on both.
func sameStats(t *testing.T, a, b Stats, la, lb string) {
	t.Helper()
	if a != b {
		t.Fatalf("stats diverge: %s %+v != %s %+v", la, a, lb, b)
	}
	if a.Ops != (Stats{}).Ops {
		t.Fatalf("%s: native backend filled Ops: %+v", la, a.Ops)
	}
}

// TestBackendEquivalenceFuzz is the cross-backend exactness property
// test: random codes, random table shapes (uniform, portion-structured,
// negative-shifted, near-degenerate), random tombstone sets, every
// grouping depth, both group orderings and both SWAR pipelines — every
// available backend must return identical ids, distances and Stats,
// and all of them must match the instruction-counting model engine.
func TestBackendEquivalenceFuzz(t *testing.T) {
	backends := dispatch.AvailableBackends()
	if len(backends) < 2 {
		t.Logf("only %v available; cross-backend leg degenerates to swar-vs-model", backends)
	}
	defer func(old int) { nativeLUTMinVectors = old }(nativeLUTMinVectors)

	r := rng.New(20260727)
	scratches := make(map[dispatch.Backend]*Scratch, len(backends))
	for _, be := range backends {
		scratches[be] = NewScratch()
	}

	for iter := 0; iter < 60; iter++ {
		// Both SWAR pipelines across the sweep.
		nativeLUTMinVectors = []int{0, 1 << 30, 4096}[iter%3]

		n := r.Intn(6000) + 1
		k := []int{1, 10, 100, 500}[r.Intn(4)]
		codes := make([]uint8, n*M)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
		p := NewPartition(codes, nil)

		// Table shapes stress different quantizer ranges: the paper's
		// pruning-friendly portion structure, uniform noise (wide range,
		// little pruning), negative entries (distances are arbitrary
		// float32 sums here), and a near-degenerate band (tiny delta,
		// heavy saturation).
		tables := randomTablesShape(r, iter%4)

		// Random tombstones, sometimes including keep-region vectors.
		if iter%2 == 1 {
			for i := 0; i < n; i += 3 + r.Intn(17) {
				p.Tombstone(int64(i))
			}
		}

		fs, err := NewFastScan(p, FastScanOptions{
			Keep:            []float64{0, 0.005, 0.06}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
			OrderGroups:     r.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}

		model, modelStats := fs.Scan(tables, k)
		first := backends[0]
		ref, refStats := fs.ScanNativeBackend(tables, k, scratches[first], first)
		sameResults(t, model, ref, "model", "backend:"+first.String())
		sameCounters(t, modelStats, refStats, "backend:"+first.String())

		for _, be := range backends[1:] {
			got, gotStats := fs.ScanNativeBackend(tables, k, scratches[be], be)
			sameResults(t, ref, got, "backend:"+first.String(), "backend:"+be.String())
			sameStats(t, refStats, gotStats, first.String(), be.String())
		}

		// A rescan through the used Scratch must change nothing.
		again, againStats := fs.ScanNativeBackend(tables, k, scratches[first], first)
		sameResults(t, ref, again, "first-scan", "rescan")
		sameStats(t, refStats, againStats, "first-scan", "rescan")

		// Mutate online and re-verify: appends regroup the layout, and
		// nothing a Scratch holds from the old one may leak into the
		// scan of the new.
		if iter%4 == 3 {
			batch := r.Intn(150) + 1
			bcodes := make([]uint8, batch*M)
			bids := make([]int64, batch)
			for i := range bcodes {
				bcodes[i] = uint8(r.Intn(256))
			}
			for i := range bids {
				bids[i] = int64(p.N + i)
			}
			p = p.CloneAppend(bcodes, bids)
			fs = fs.CloneAppend(p, bcodes, bids)
			model2, model2Stats := fs.Scan(tables, k)
			for _, be := range backends {
				got, gotStats := fs.ScanNativeBackend(tables, k, scratches[be], be)
				sameResults(t, model2, got, "model+append", "backend:"+be.String())
				sameCounters(t, model2Stats, gotStats, "append backend:"+be.String())
			}
		}
	}
}

// randomTablesShape builds distance tables of one of four stress
// shapes; see TestBackendEquivalenceFuzz.
func randomTablesShape(r *rng.Source, shape int) quantizer.Tables {
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for j := 0; j < M; j++ {
		row := tables.Row(j)
		switch shape {
		case 0: // portion-structured (one near portion per component)
			near := r.Intn(16)
			for h := 0; h < 16; h++ {
				level := 1000 + r.Float32()*5000
				if h == near {
					level = r.Float32() * 20
				}
				for i := 0; i < 16; i++ {
					row[h*16+i] = level + r.Float32()*50
				}
			}
		case 1: // uniform noise
			for i := range row {
				row[i] = r.Float32() * 1000
			}
		case 2: // negative-shifted
			for i := range row {
				row[i] = r.Float32()*100 - 50
			}
		default: // near-degenerate band
			base := r.Float32() * 10
			for i := range row {
				row[i] = base + r.Float32()*0.001
			}
		}
	}
	return tables
}

// TestQuantizationOnlyScratchMatches pins the Scratch-reusing ablation
// to the allocating one, over repeated calls through one Scratch and a
// change of query.
func TestQuantizationOnlyScratchMatches(t *testing.T) {
	sc := NewScratch()
	for seed := uint64(1); seed <= 3; seed++ {
		p, tables := randomPartition(t, 4000, seed)
		want, wantStats := QuantizationOnly(p, tables, 50, 0.01)
		for call := 0; call < 3; call++ {
			got, gotStats := QuantizationOnlyScratch(p, tables, 50, 0.01, sc)
			sameResults(t, want, got, "quantonly", "quantonly-scratch")
			// Both run on the model path: every counter — modeled Ops
			// included — must be independent of what the Scratch held.
			if wantStats != gotStats {
				t.Fatalf("call %d: stats depend on the scratch: %+v != %+v", call, wantStats, gotStats)
			}
		}
	}
}
