package scan

import (
	"fmt"
	"sync"
	"testing"

	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/rng"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// benchEnv is one benchmark fixture: a partition of n random codes and
// the portion-homogeneous distance tables of the paper's operating
// regime (the §4.3 optimized assignment makes nearby centroids share a
// portion, so one portion per component is close to the query and Fast
// Scan prunes heavily — the regime all §5 figures measure). Run under
// PQ_FORCE_BACKEND=swar|asm-avx2|asm-avx512vbmi for one backend's numbers
// (DESIGN.md §8); every scan builds its query tables, as every served
// scan does.
type benchEnv struct {
	p      *Partition
	tables quantizer.Tables
	fast   *FastScan
}

var (
	benchEnvs   = map[int]*benchEnv{}
	benchEnvsMu sync.Mutex
)

func getBenchEnv(b *testing.B, n int) *benchEnv {
	b.Helper()
	benchEnvsMu.Lock()
	defer benchEnvsMu.Unlock()
	if e, ok := benchEnvs[n]; ok {
		return e
	}
	r := rng.New(uint64(n) + 1)
	codes := make([]uint8, n*M)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	tables := quantizer.Tables{M: M, KStar: 256, Data: make([]float32, M*256)}
	for j := 0; j < M; j++ {
		row := tables.Data[j*256 : (j+1)*256]
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
	}
	e := &benchEnv{p: NewPartition(codes, nil), tables: tables}
	fs, err := newLayout(e.p, FastScanOptions{Keep: DefaultKeep, GroupComponents: -1})
	if err != nil {
		b.Fatal(err)
	}
	if n == paperDepthN && fs.GroupComponents() != 4 {
		b.Fatalf("n=%d groups on c = %d: the paper-depth rows must measure c = 4", n, fs.GroupComponents())
	}
	e.fast = fs
	benchEnvs[n] = e
	return e
}

const benchK = 100

// benchSizes spans the partition sizes the kernels are compared at:
// 100 000 is the size of one lib_mixed/serve_search partition of the
// standing benchmark, paperDepthN the paper's regime.
var benchSizes = []int{1000, 10000, 100000, paperDepthN}

// paperDepthN is a partition size of the paper's 3.2–25 M range at
// which AutoComponents groups on c = 4: the grouped region, keep
// excluded, must reach layout.MinPartitionSize(4) = 3 276 800 codes.
// Its fixture takes about 2 s to build.
const paperDepthN = 3_300_000

// BenchmarkKernels covers the serving scans at several partition sizes;
// the model's rows of the same benchmark (engine=model) are in
// internal/scan/model, at the sizes below paperDepthN. A size's fixture
// is built by the first row that runs it, so a -bench pattern naming
// one size builds only that one.
func BenchmarkKernels(b *testing.B) {
	variants := []struct {
		kernel string
		run    func(e *benchEnv, sc *Scratch) []topk.Result
	}{
		{"libpq", func(e *benchEnv, sc *Scratch) []topk.Result {
			r, _ := ExactNative(e.p, e.tables, benchK, sc)
			return r
		}},
		{"fastpq", func(e *benchEnv, sc *Scratch) []topk.Result {
			r, _ := e.fast.ScanNativeBackend(e.tables, benchK, sc, dispatch.Auto)
			return r
		}},
	}
	for _, n := range benchSizes {
		for _, v := range variants {
			b.Run(fmt.Sprintf("n=%d/kernel=%s/engine=native", n, v.kernel), func(b *testing.B) {
				e := getBenchEnv(b, n)
				sc := NewScratch()
				b.ReportAllocs()
				b.SetBytes(int64(n * M))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.run(e, sc)
				}
			})
		}
		for _, be := range dispatch.AvailableBackends() {
			b.Run(fmt.Sprintf("n=%d/kernel=bound/backend=%s", n, be), func(b *testing.B) {
				benchBound(b, getBenchEnv(b, n), be)
			})
		}
	}
}

// benchBound times backend be's block bound alone — every group of the
// layout bounded once a pass, at a threshold that prunes nothing, no
// re-check — and reports its ns/block: the kernel of one bound against
// the kernel of the other.
func benchBound(b *testing.B, e *benchEnv, be dispatch.Backend) {
	sc := NewScratch()
	sc.qt.mins.Fill(e.tables)
	qmin, _ := sc.qt.mins.Bounds()
	qt := sc.queryTablesFor(e.fast, e.tables, qmin, e.tables.MaxSum(), be)
	var tb *[128]uint8
	switch be {
	case dispatch.SWAR:
		qt.buildLUTs()
	case dispatch.AVX2:
		tb = qt.asmTables()
	}
	g := e.fast.Grouped()
	bb := g.BlockSize()
	blocks := 0
	for gi := range g.Groups {
		blocks += g.Groups[gi].BlockCount
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi := range g.Groups {
			grp := &g.Groups[gi]
			sc.bound(qt, be, tb, g.Blocks[grp.BlockStart*bb:(grp.BlockStart+grp.BlockCount)*bb], grp, 127)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
}

// BenchmarkFastScan is the headline scan on 10k and 100k partitions
// (its engine=model rows are in internal/scan/model). The run must be
// allocation-free in the steady state (the Scratch is reused). It
// reports the candidates a scan re-checks exactly (cand/scan, the same
// on every run and backend) and the scan's time per candidate (ns/cand),
// the figure a faster exact re-check has to lower.
func BenchmarkFastScan(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		e := getBenchEnv(b, n)
		b.Run(fmt.Sprintf("n=%d/engine=native", n), func(b *testing.B) {
			sc := NewScratch()
			_, st := e.fast.ScanNativeBackend(e.tables, benchK, sc, dispatch.Auto) // warm the scratch buffers
			b.ReportAllocs()
			b.SetBytes(int64(n * M))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.fast.ScanNativeBackend(e.tables, benchK, sc, dispatch.Auto)
			}
			b.ReportMetric(float64(st.Candidates), "cand/scan")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Candidates), "ns/cand")
		})
	}
}
