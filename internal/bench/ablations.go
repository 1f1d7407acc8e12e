package bench

import (
	"fmt"
	"io"
	"sync"

	"pqfastscan/internal/index"
	"pqfastscan/internal/layout"
	"pqfastscan/internal/perf"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/scan/model"
)

// arbitraryIndex lazily builds a second index identical to env.Index
// except that the §4.3 optimized centroid index assignment is disabled,
// for the Figure 11 ablation.
var (
	arbMu    sync.Mutex
	arbCache = map[*Env]*index.Index{}
)

func (e *Env) arbitraryIndex() (*index.Index, error) {
	arbMu.Lock()
	defer arbMu.Unlock()
	if ix, ok := arbCache[e]; ok {
		return ix, nil
	}
	opt := index.DefaultOptions()
	opt.Partitions = e.Scale.Partitions
	opt.Seed = e.Scale.Seed
	opt.OptimizeAssignment = false
	ix, err := index.Build(e.Learn, e.Base, opt)
	if err != nil {
		return nil, err
	}
	arbCache[e] = ix
	return ix, nil
}

// Figure11Ablation quantifies the benefit of the optimized centroid index
// assignment (same-size k-means, §4.3) on minimum-table tightness: the
// mean gap between the exact distance-table entry and the minimum of its
// portion, plus the resulting pruning power.
func Figure11Ablation(env *Env, w io.Writer) error {
	arb, err := env.arbitraryIndex()
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "assignment\tmean min-table gap\tpruned %% (fastpq, c auto)\n")
	for _, row := range []struct {
		name string
		ix   *index.Index
	}{
		{"optimized (same-size k-means)", env.Index},
		{"arbitrary (training order)", arb},
	} {
		gap := minTableGap(row.ix, env)
		var pruned, lbs int
		nq := env.Pool.Rows()
		if nq > 16 {
			nq = 16
		}
		for qi := 0; qi < nq; qi++ {
			q := env.Pool.Row(qi)
			part := row.ix.RoutePartition(q)
			t := row.ix.Tables(q, part)
			p := inBuildOrder(row.ix.Parts()[part])
			opt := HeadlineFastOpts(p.N, 100)
			fs, err := scan.NewFastScan(scan.Ordered(p, opt), opt)
			if err != nil {
				return err
			}
			_, stats := model.Scan(fs, t, 100)
			pruned += stats.Pruned
			lbs += stats.LowerBounds
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.2f\n", row.name, gap, 100*float64(pruned)/float64(lbs))
	}
	return tw.Flush()
}

// minTableGap averages, over sampled database vectors and benchmark
// queries, the looseness introduced by replacing an exact distance-table
// entry with its portion minimum.
func minTableGap(ix *index.Index, env *Env) float64 {
	totGap, cnt := 0.0, 0
	nq := env.Scale.QueryN
	if nq > 4 {
		nq = 4
	}
	for qi := 0; qi < nq; qi++ {
		q := env.Queries.Row(qi)
		part := ix.RoutePartition(q)
		t := ix.Tables(q, part)
		p := inBuildOrder(ix.Parts()[part])
		for j := 0; j < scan.M; j++ {
			row := t.Row(j)
			var mins [16]float32
			for h := 0; h < 16; h++ {
				m := row[h*16]
				for _, v := range row[h*16+1 : h*16+16] {
					if v < m {
						m = v
					}
				}
				mins[h] = m
			}
			step := p.N/2000 + 1
			for i := 0; i < p.N; i += step {
				e := row[p.Code(i)[j]]
				totGap += float64(e - mins[p.Code(i)[j]>>4])
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return totGap / float64(cnt)
}

// GroupingAblation sweeps the grouping depth c on the largest partition:
// deeper grouping replaces minimum tables with exact small tables
// (raising pruning power) but shrinks groups, so the per-group
// table-reload overhead grows — the trade-off behind the paper's
// nmin(c) = 50·16^c rule.
func GroupingAblation(env *Env, w io.Writer) error {
	part := env.largestPartition()
	n := env.Index.Parts()[part].N
	arch := perf.Haswell
	pool := env.partitionPoolQueries(part, 8)
	if len(pool) == 0 {
		pool = []int{0}
	}
	nq := len(pool)
	tw := newTab(w)
	fmt.Fprintf(tw, "c\tnmin(c)\tgroups\tavg group size\tpruned %%\tspeed [Mvecs/s]\n")
	for c := 0; c <= layout.MaxGroupComponents; c++ {
		opt := HeadlineFastOpts(n, 100)
		opt.GroupComponents = c
		var pruned, lbs int
		var speed float64
		var groups int
		for _, qi := range pool {
			out, _, err := env.runPool(model.KernelFastScan, qi, 100, opt)
			if err != nil {
				return err
			}
			pruned += out.Stats.Pruned
			lbs += out.Stats.LowerBounds
			groups = out.Stats.Groups
			speed += speedMvecs(out.Stats.Counters(arch), n, arch)
		}
		avgSize := float64(n)
		if groups > 0 {
			avgSize = float64(n) / float64(groups)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.2f\t%.0f\n",
			c, layout.MinPartitionSize(c), groups, avgSize,
			100*float64(pruned)/float64(lbs), speed/float64(nq))
	}
	fmt.Fprintf(tw, "\npartition %d (%d vectors); auto rule selects c=%d\n",
		part, n, layout.AutoComponents(n))
	return tw.Flush()
}

// MemoryFootprint reports the §4.2 packed-layout saving per partition,
// and the bytes per vector the index holds for its rows, by what holds
// them: row-major codes (keep regions and tails), ids, the packed
// blocks (every other row's code) and the group directory.
func MemoryFootprint(env *Env, w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintf(tw, "partition\t# vectors\tc\trow-major bytes\tpacked bytes\tsaving %%\n")
	var totPacked, totRow, rows int
	for part, p := range env.Index.Parts() {
		rows += p.N
		fs, err := env.Index.FastScanner(part)
		if err != nil {
			return err
		}
		g := fs.Grouped()
		totPacked += g.PackedBytes()
		totRow += g.RowMajorBytes()
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.1f\n",
			part, g.N, g.C, g.RowMajorBytes(), g.PackedBytes(), 100*g.MemorySaving())
	}
	fmt.Fprintf(tw, "total\t\t\t%d\t%d\t%.1f\n",
		totRow, totPacked, 100*(1-float64(totPacked)/float64(totRow)))
	if err := tw.Flush(); err != nil {
		return err
	}
	m, err := env.Index.GroupedMemoryBytes()
	if err != nil {
		return err
	}
	per := func(b int) float64 { return float64(b) / float64(m.Rows) }
	if _, err := fmt.Fprintf(w, "resident bytes per vector: %.1f (row-major codes %.2f, ids %.2f, packed blocks %.2f, group directory %.2f)\n",
		per(m.Resident()), per(m.Codes), per(m.IDs), per(m.Blocks), per(m.Directory)); err != nil {
		return err
	}
	// The first Delete builds the Delete routing table. It deletes build
	// id 0 from a copy sharing the index's partitions, so the index the
	// other experiments run on keeps every row.
	all := make([]int, env.Index.Partitions())
	for c := range all {
		all[c] = c
	}
	cp, err := env.Index.RestrictCells(all)
	if err != nil {
		return err
	}
	if err := cp.Delete(0); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "delete routing bytes per vector (after one Delete): %.1f\n", float64(cp.DeleteRoutingBytes())/float64(rows))
	return err
}
