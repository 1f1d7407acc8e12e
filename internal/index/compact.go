// Rebuilding a partition's base: the one place a grouped layout is
// built or an extent written after attach. Two things accumulate in
// partition epochs and cost scan time until a rebuild takes them away.
// Tombstoned codes (Delete never rewrites code blocks) are dropped by
// the online compactor, entirely off the serving path. Appended rows
// sit in the tail, plain-scanned by every query, until ApplyAdd folds a
// tail of foldTail rows into a new base. Both run under the partition's
// builder lock and publish with the same single snapshot swap every
// mutation uses. Queries in flight keep the old epoch; queries after
// the swap scan fewer codes, or prune more of them, for bit-identical
// results (the scan kernels are exact over the live set, so neither
// removing rows that every kernel already skipped nor regrouping rows
// changes anything but cost).
package index

import (
	"fmt"

	"pqfastscan/internal/scan"
)

// foldTail is the tail length at which ApplyAdd folds a partition's
// tail into a new base. A fold costs F (flatten, regroup, repack: 5.6 ms
// for 100k codes) once per foldTail single-vector Adds; until it
// happens an Add copies the tail (16 bytes a row) and a Search
// plain-scans it, T/2 rows on average at s ≤ 15 ns a row. With r
// Searches per Add, F/T + r·s·T/2 is least at T = sqrt(2F/(r·s)) ≈ 430
// for r = 4 — with an s that is an upper bound: measured, a Search over
// a tail of 1 023 rows is no slower than over none (the rows tighten
// the bound the blocks are pruned with). 1 024 puts 5.5 µs of fold on
// an Add and keeps its copy within 16 KiB (BenchmarkAddSingle,
// DESIGN.md §11).
const foldTail = 1024

// PartitionStat describes one partition's occupancy in a snapshot, for
// compaction policy and the /stats endpoint.
type PartitionStat struct {
	Partition int     `json:"partition"`
	Live      int     `json:"live"`
	Dead      int     `json:"dead"`
	Tail      int     `json:"tail"` // rows awaiting a fold (above foldTail: folds are failing)
	Epoch     uint64  `json:"epoch"`
	DeadRatio float64 `json:"dead_ratio"`
}

// PartitionStats returns per-partition live/dead/epoch counters from the
// current snapshot — one atomic load, no locks.
func (ix *Index) PartitionStats() []PartitionStat {
	s := ix.snap.Load()
	out := make([]PartitionStat, len(s.Parts))
	for i, pe := range s.Parts {
		st := PartitionStat{
			Partition: i,
			Live:      pe.Part.Live(),
			Dead:      pe.Part.DeadCount(),
			Tail:      pe.Part.Tail(),
			Epoch:     pe.Epoch,
		}
		if pe.Part.N > 0 {
			st.DeadRatio = float64(st.Dead) / float64(pe.Part.N)
		}
		out[i] = st
	}
	return out
}

// CompactionResult reports one partition compaction.
type CompactionResult struct {
	Partition int    `json:"partition"`
	Reclaimed int    `json:"reclaimed"` // tombstoned rows removed
	Live      int    `json:"live"`      // rows in the compacted epoch
	Epoch     uint64 `json:"epoch"`     // epoch published (0 if none was)
}

// CompactPartition rebuilds partition c without its tombstoned rows,
// folding its tail, and publishes the compacted epoch. The rebuild runs
// under the partition's builder lock — contending only with mutations
// of the same partition — while queries keep scanning the previous
// epoch until the publish. A partition with neither tombstones nor a
// tail is left untouched (Reclaimed 0, Epoch 0).
//
// Search results are bit-identical before and after (modulo the deleted
// ids, which no kernel returned anyway): the kernels are exact over
// live rows, and regrouping only changes how much the scan prunes,
// never what it returns.
func (ix *Index) CompactPartition(c int) (CompactionResult, error) {
	if c < 0 || c >= ix.Partitions() {
		return CompactionResult{}, fmt.Errorf("index: partition %d out of range", c)
	}
	ix.partMu[c].Lock()
	defer ix.partMu[c].Unlock()
	cur := ix.snap.Load().Parts[c]
	dead := cur.Part.DeadCount()
	if dead == 0 && cur.Part.Tail() == 0 {
		return CompactionResult{Partition: c, Live: cur.Part.Live()}, nil
	}
	pe, err := ix.rebuild(c, cur, true)
	if err != nil {
		return CompactionResult{}, fmt.Errorf("index: compacting partition %d: %w", c, err)
	}
	return CompactionResult{Partition: c, Reclaimed: dead, Live: pe.Part.Live(), Epoch: pe.Epoch}, nil
}

// rebuild gives partition c a new base — cur's rows, base and tail, in
// one row-major run (without the tombstoned ones when dropDead) put in
// Fast Scan order, a Fast Scan layout built over it from scratch and,
// on a paged index, one new extent holding both — and publishes it as
// c's next epoch. The layout is built off the serving path, under the
// builder lock, and derives its lane bits from the new base's row
// bits. Ordering
// moves rows — a fold's tail rows join their groups, and the rows
// behind them shift — carrying each dead bit with its row; dropping
// the dead rows renumbers the rest. Either way every row's id is
// registered again in the Delete routing table. The caller holds
// ix.partMu[c].
// On an error nothing is published and cur stays.
func (ix *Index) rebuild(c int, cur *PartEpoch, dropDead bool) (*PartEpoch, error) {
	p, _, release, err := cur.view()
	if err != nil {
		return nil, err
	}
	// Flatten and Compact copy into fresh arrays, so nothing retains the
	// pinned payload.
	var next *scan.Partition
	if dropDead {
		next = p.Compact()
	} else {
		next = p.Flatten()
	}
	release()
	next = scan.Ordered(next, ix.opt.FastScan)
	pe := ix.newEpoch(next)
	if ix.pg != nil {
		// The extent is named after its epoch, so the number is allocated
		// before the write; per-partition ordering still holds because
		// ix.partMu[c] serializes publishes into this slot.
		if pe.paged, pe.Part, pe.fast, err = ix.pg.writeExtent(ix.extentName(c, pe.Epoch), pe.fast); err != nil {
			return nil, err
		}
	}
	ix.publishAt(c, pe)
	ix.register(c, next, 0)
	return pe, nil
}

// Compact compacts every partition whose dead ratio (tombstoned rows /
// total rows) is at least minDeadRatio, one partition at a time so the
// builder locks are held briefly and mutations interleave freely. It
// returns the partitions actually compacted. A minDeadRatio of 0
// compacts every partition holding any tombstone.
func (ix *Index) Compact(minDeadRatio float64) ([]CompactionResult, error) {
	var out []CompactionResult
	for _, st := range ix.PartitionStats() {
		if st.Dead == 0 || st.DeadRatio < minDeadRatio {
			continue
		}
		r, err := ix.CompactPartition(st.Partition)
		if err != nil {
			return out, err
		}
		if r.Reclaimed > 0 {
			out = append(out, r)
		}
	}
	return out, nil
}
