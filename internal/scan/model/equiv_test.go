package model

import (
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
)

// TestScanNativeMatchesModel is the model-vs-serving equivalence
// invariant: over random shapes, keeps, grouping depths and k, the
// serving scan on every available backend and the model of its bound
// return bit-identical top-k and identical pruning counters.
func TestScanNativeMatchesModel(t *testing.T) {
	r := rng.New(31337)
	sc, pin := scan.NewScratch(), backendPin(t)
	for trial := 0; trial < 40; trial++ {
		n := r.Intn(5000) + 1
		k := []int{1, 7, 50, 200}[r.Intn(4)]
		p, tables := randomPartition(t, n, r.Uint64())
		fs, err := newLayout(p, scan.FastScanOptions{
			Keep:            []float64{0, 0.002, 0.05}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range dispatch.AvailableBackends() {
			pin(be)
			want, wantStats := modelOf(be)(fs, tables, k)
			got, gotStats := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
			sameResults(t, want, got, "model", "native:"+be.String())
			sameCounters(t, wantStats, gotStats, "fastscan:"+be.String())
		}
	}
}

// TestScanNativeWithTombstones: dead rows are skipped identically by the
// model and the serving scan, including when the current best matches
// die — deleted as the index deletes, one row and lane at a time.
func TestScanNativeWithTombstones(t *testing.T) {
	p, tables := randomPartition(t, 4000, 88)
	fs, err := newLayout(p, scan.FastScanOptions{Keep: 0.01, GroupComponents: -1})
	if err != nil {
		t.Fatal(err)
	}
	p = fs.Partition()
	best, _ := Scan(fs, tables, 20)
	for _, res := range best[:10] {
		p, fs = tombstone(p, fs, rowOf(p, res.ID))
	}
	for i := 0; i < 4000; i += 13 {
		p, fs = tombstone(p, fs, i)
	}
	want, wantStats := modelOf(dispatch.Active())(fs, tables, 20)
	got, gotStats := fs.ScanNativeBackend(tables, 20, nil, dispatch.Auto)
	sameResults(t, want, got, "model+dead", "native+dead")
	sameCounters(t, wantStats, gotStats, "tombstones")
	for _, res := range want {
		if p.DeadAt(rowOf(p, res.ID)) {
			t.Fatalf("model returned tombstoned id %d", res.ID)
		}
	}
}

// TestExactNativeMatchesKernels: the tuned exact scan returns
// bit-identical results to each §3 baseline, with and without explicit
// ids and tombstones.
func TestExactNativeMatchesKernels(t *testing.T) {
	r := rng.New(55)
	sc := scan.NewScratch()
	for trial := 0; trial < 25; trial++ {
		n := r.Intn(3000) + 1
		k := []int{1, 10, 100}[r.Intn(3)]
		p, tables := randomPartition(t, n, r.Uint64())
		if trial%2 == 1 {
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)*3 + 7
			}
			p = scan.NewPartition(p.FlatCodes(), ids)
			for i := 0; i < n; i += 11 {
				p, _ = p.CloneTombstone(i)
			}
		}
		if trial%3 == 2 && n > 1 {
			// The same rows as base + tail: the baselines read both runs.
			codes, b := p.FlatCodes(), n/2
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = p.ID(i)
			}
			tailed := scan.NewPartition(codes[:b*M], ids[:b]).CloneAppend(codes[b*M:], ids[b:])
			if err := tailed.RestoreDead(p.DeadIDs()); err != nil {
				t.Fatal(err)
			}
			p = tailed
		}
		got, _ := scan.ExactNative(p, tables, k, sc)
		want, _ := Naive(p, tables, k)
		sameResults(t, want, got, "naive", "exact-native")
		qo, _ := QuantizationOnly(p, tables, k, 0.01)
		sameResults(t, qo, got, "quantonly", "exact-native")
		lp, _ := Libpq(p, tables, k)
		sameResults(t, lp, got, "libpq", "exact-native")
		av, _ := AVX(p, tables, k)
		sameResults(t, av, got, "avx", "exact-native")
		ga, _ := Gather(p, tables, k)
		sameResults(t, ga, got, "gather", "exact-native")
	}
}

// TestScanNativeAfterAppend: a layout rebound over a growing tail keeps
// the model and the serving scan in lockstep — results and counters —
// through online appends: both take the appended rows in the keep phase
// (scan.KeepBounds).
func TestScanNativeAfterAppend(t *testing.T) {
	r := rng.New(2025)
	p, tables := randomPartition(t, 2000, 61)
	fs, err := newLayout(p, scan.FastScanOptions{Keep: 0.01, GroupComponents: 2})
	if err != nil {
		t.Fatal(err)
	}
	p = fs.Partition()
	for round := 0; round < 4; round++ {
		batch := r.Intn(200) + 1
		codes := make([]uint8, batch*M)
		ids := make([]int64, batch)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
		for i := range ids {
			ids[i] = int64(p.N + i)
		}
		p = p.CloneAppend(codes, ids)
		fs = fs.Rebind(p, -1)

		want, wantStats := modelOf(dispatch.Active())(fs, tables, 30)
		got, gotStats := fs.ScanNativeBackend(tables, 30, nil, dispatch.Auto)
		sameResults(t, want, got, "model", "native")
		sameCounters(t, wantStats, gotStats, "append round")
	}
}

// TestBackendEquivalenceFuzz is the model leg of the cross-backend
// exactness property test of internal/scan, over the same sweep: random
// codes, random table shapes (uniform, portion-structured,
// negative-shifted, near-degenerate), random tombstone sets, every
// grouping depth — every available backend must return the ids,
// distances and counters of the model of its bound. As there, every
// scan goes through ONE Scratch while the process is pinned from
// backend to backend in a turning order, so nothing a Scratch keeps for
// one backend may leak into a scan on another.
func TestBackendEquivalenceFuzz(t *testing.T) {
	backends := dispatch.AvailableBackends()
	pin := backendPin(t)
	// check pins backend i of this iteration's turn, scans through the
	// one Scratch and holds the scan to its bound's model.
	sc := scan.NewScratch()
	check := func(iter, i int, fs *scan.FastScan, tables quantizer.Tables, k int, label string) {
		be := backends[(iter+i)%len(backends)]
		pin(be)
		model, modelStats := modelOf(be)(fs, tables, k)
		got, gotStats := fs.ScanNativeBackend(tables, k, sc, dispatch.Auto)
		sameResults(t, model, got, "model"+label, "backend:"+be.String())
		sameCounters(t, modelStats, gotStats, label+"backend:"+be.String())
	}
	r := rng.New(20260727)

	for iter := 0; iter < 60; iter++ {
		n := r.Intn(6000) + 1
		k := []int{1, 10, 100, 500}[r.Intn(4)]
		codes := make([]uint8, n*M)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
		p := scan.NewPartition(codes, nil)
		tables := randomTablesShape(r, iter%4)

		// Random tombstones, sometimes including keep-region vectors.
		if iter%2 == 1 {
			for i := 0; i < n; i += 3 + r.Intn(17) {
				p, _ = p.CloneTombstone(i)
			}
		}

		fs, err := newLayout(p, scan.FastScanOptions{
			Keep:            []float64{0, 0.005, 0.06}[r.Intn(3)],
			GroupComponents: r.Intn(5) - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		p = fs.Partition()

		for i := range backends {
			check(iter, i, fs, tables, k, "")
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
			for i := range backends {
				check(iter+1, i, fs, tables, k, "+append ")
			}
		}
	}
}

// randomTablesShape builds distance tables of one of four stress
// shapes: the paper's pruning-friendly portion structure, uniform noise
// (wide range, little pruning), negative entries (distances are
// arbitrary float32 sums here), and a near-degenerate band (tiny delta,
// heavy saturation).
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
