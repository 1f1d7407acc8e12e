package scan

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// TestBackendEquivalenceFuzz is the cross-backend exactness property
// test: random codes, random table shapes (uniform, portion-structured,
// negative-shifted, near-degenerate), random tombstone sets, every
// grouping depth — every available backend must return the scalar
// oracle's ids and distances, and the Stats of every other backend of
// its bound (internal/scan/model holds each bound to its model over the
// same sweep). Every scan goes through ONE Scratch while the process is
// pinned from backend to backend, in an order that turns each
// iteration, so what a Scratch keeps for one backend (pair LUTs, the
// 128-byte table block, the lower-bound buffers) is shown not to leak
// into a scan on another.
func TestBackendEquivalenceFuzz(t *testing.T) {
	backends := dispatch.AvailableBackends()
	if len(backends) < 2 {
		t.Logf("only %v available; cross-backend leg degenerates to swar-vs-oracle", backends)
	}
	pin := backendPin(t)
	// scanOn pins backend i of this iteration's turn and scans through
	// the one Scratch.
	sc := NewScratch()
	scanOn := func(iter, i int, fs *FastScan, tables quantizer.Tables, k int) (dispatch.Backend, []topk.Result, Stats) {
		be := backends[(iter+i)%len(backends)]
		pin(be)
		got, st := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
		return be, got, st
	}

	r := rng.New(20260727)

	for iter := 0; iter < 60; iter++ {
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
				p, _ = p.CloneTombstone(i)
			}
		}

		fs, err := newLayout(p, FastScanOptions{
			Keep:            []float64{0, 0.005, 0.06}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		p = fs.Partition()

		want, _ := Naive(p, tables, k)
		bs := boundStats{}
		for i := range backends {
			be, got, gotStats := scanOn(iter, i, fs, tables, k)
			sameResults(t, want, got, "naive", "backend:"+be.String())
			bs.check(t, be, gotStats, "")

			// A rescan through the used Scratch must change nothing.
			again, againStats := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
			sameResults(t, want, again, "first-scan", "rescan")
			sameStats(t, gotStats, againStats, "first-scan", "rescan")
		}

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
			fs = fs.Rebind(p, -1)
			want2, _ := Naive(p, tables, k)
			bs := boundStats{}
			for i := range backends {
				be, got, gotStats := scanOn(iter+1, i, fs, tables, k)
				sameResults(t, want2, got, "naive+append", "backend:"+be.String())
				bs.check(t, be, gotStats, "append:")
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
