// Online mutation, copy-on-write: the index accepts new vectors and
// deletions after construction, without retraining and without ever
// blocking queries. New vectors are encoded against the trained coarse
// and product quantizers — exactly the codes a from-scratch rebuild over
// the same vectors would produce — and each affected partition gets a
// successor epoch that shares its predecessor's base (row-major codes,
// Fast Scan layout, disk extent) and differs in what the mutation
// touched: an Add copies the tail with the batch appended, a Delete
// copies one 4 096-bit chunk of the dead bits with one row more. Epochs
// are published with a single snapshot swap (snapshot.go). A tail that
// has reached foldTail rows is folded into a new base, and tombstoned
// codes are dropped, by the one rebuild of compact.go.
package index

import (
	"errors"
	"fmt"

	"pqfastscan/internal/par"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/vec"
)

// ErrNotFound reports a Delete of an id that is not live in the index:
// never assigned, already deleted, or dropped with a snapshot swap. It
// travels end-to-end — façade Delete wraps it and the HTTP service maps
// it to a 404.
var ErrNotFound = errors.New("index: id not found")

// Add encodes and indexes the rows of vecs, returning the id assigned to
// each (a monotonically increasing sequence continuing the build-time
// ids). Encoding and routing run lock-free; each affected partition then
// gets, under its own builder lock, a successor epoch with the batch
// appended to its tail, published atomically, so an Add costs what it
// adds (plus its share of a fold every foldTail rows) and contends only
// with other mutations touching the same partitions — in-flight queries
// keep scanning the previous epochs and later queries see the whole
// batch.
//
// Add is the composition of EncodeRoute, AllocIDs and ApplyAdd — split
// so the durability layer can log the encoded mutation (cells, ids,
// codes) between allocation and application: exactly what the WAL
// replays after a crash, byte-for-byte what the original Add indexed.
func (ix *Index) Add(vecs vec.Matrix) ([]int64, error) {
	cells, codes, err := ix.EncodeRoute(vecs)
	if err != nil {
		return nil, err
	}
	n := len(cells)
	base := ix.AllocIDs(n)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = base + int64(i)
	}
	if err := ix.ApplyAdd(cells, ids, codes); err != nil {
		return nil, err
	}
	return ids, nil
}

// EncodeRoute routes each row of vecs to its coarse cell and encodes its
// residual, returning the parallel cell slice and the flat n×M code
// block. It is read-only with respect to index state: pure computation
// against the trained quantizers, safe to run outside any mutation lock.
// Build encodes its base set here too. Rows go through the batched
// nearest-centroid search (vec.ArgminL2Rows, PQ.EncodeRows) in slabs,
// and a batch of parallelRows or more is chunked over cores; the cells
// and codes are those of one vec.ArgminL2 per row and subspace either
// way.
func (ix *Index) EncodeRoute(vecs vec.Matrix) (cells []int, codes []uint8, err error) {
	if vecs.Dim != ix.Dim {
		return nil, nil, fmt.Errorf("index: vector dim %d != index dim %d", vecs.Dim, ix.Dim)
	}
	n := vecs.Rows()
	for i := 0; i < n; i++ {
		if err := CheckVector(vecs.Row(i), ix.Dim); err != nil {
			return nil, nil, fmt.Errorf("vector %d: %w", i, err)
		}
	}
	m, dim := ix.PQ.M, ix.Dim
	cells = make([]int, n)
	codes = make([]uint8, n*m)
	encode := func(lo, hi int) {
		residuals := make([]float32, min(encodeSlab, hi-lo)*dim)
		for s := lo; s < hi; s += encodeSlab {
			e := min(s+encodeSlab, hi)
			rows := vecs.Data[s*dim : e*dim]
			vec.ArgminL2Rows(rows, dim, dim, ix.Coarse.Data, cells[s:e], nil)
			res := residuals[:(e-s)*dim]
			residualsOf(rows, ix.Coarse, cells[s:e], res)
			ix.PQ.EncodeRows(res, codes[s*m:e*m])
		}
	}
	if n >= parallelRows {
		par.ForChunk(n, encode)
	} else {
		encode(0, n)
	}
	return cells, codes, nil
}

const (
	// encodeSlab is the rows EncodeRoute routes and encodes per step,
	// bounding its residual scratch.
	encodeSlab = 256
	// parallelRows is the batch EncodeRoute spreads over cores (Build's
	// base set, a large AddBatch); a smaller one stays on its caller's.
	parallelRows = 4096
)

// residualsOf writes dst row i = rows row i − coarse centroid cells[i].
func residualsOf(rows []float32, coarse vec.Matrix, cells []int, dst []float32) {
	dim := coarse.Dim
	for i, c := range cells {
		cRow := coarse.Row(c)
		out := dst[i*dim : (i+1)*dim]
		for d, v := range rows[i*dim : (i+1)*dim] {
			out[d] = v - cRow[d]
		}
	}
}

// AllocIDs reserves a contiguous block of n ids and returns the first.
func (ix *Index) AllocIDs(n int) int64 {
	return ix.nextID.Add(int64(n)) - int64(n)
}

// ApplyAdd indexes pre-encoded rows: cells[i] receives the vector with
// ids[i] and codes [i*M, (i+1)*M). Normal Adds arrive here with ids from
// AllocIDs; WAL replay arrives with the ids recorded at the original
// acknowledgement, so ApplyAdd also advances the allocator past any
// applied id — a reloaded index never re-issues an id the log already
// assigned.
func (ix *Index) ApplyAdd(cells []int, ids []int64, codes []uint8) error {
	n := len(cells)
	m := ix.PQ.M
	if len(ids) != n || len(codes) != n*m {
		return fmt.Errorf("index: apply shape mismatch: %d cells, %d ids, %d codes for M=%d",
			n, len(ids), len(codes), m)
	}
	var maxID int64 = -1
	for i, c := range cells {
		if c < 0 || c >= ix.Partitions() {
			return fmt.Errorf("index: cell %d out of range [0,%d)", c, ix.Partitions())
		}
		if ids[i] < 0 {
			return fmt.Errorf("index: id %d is negative (the allocator issues none)", ids[i])
		}
		if ids[i] > maxID {
			maxID = ids[i]
		}
	}
	for next := ix.nextID.Load(); next <= maxID; next = ix.nextID.Load() {
		if ix.nextID.CompareAndSwap(next, maxID+1) {
			break
		}
	}

	// Bucket per partition: each partition publishes one successor epoch
	// per batch.
	type chunk struct {
		codes []uint8
		ids   []int64
	}
	chunks := make([]chunk, ix.Partitions())
	for i, c := range cells {
		chunks[c].codes = append(chunks[c].codes, codes[i*m:(i+1)*m]...)
		chunks[c].ids = append(chunks[c].ids, ids[i])
	}

	// Nothing below can fail: the rows are published in the tail — no
	// layout work, no file — before any fold is tried, so a batch is
	// never half applied.
	for c := range chunks {
		k := len(chunks[c].ids)
		if k == 0 {
			continue
		}
		ix.partMu[c].Lock()
		cur := ix.snap.Load().Parts[c]
		pe := ix.publishAt(c, ix.successor(cur, cur.Part.CloneAppend(chunks[c].codes, chunks[c].ids), -1))
		// Register the rows for Delete routing before the builder lock is
		// released, so no rebuild can move them first. A fold below
		// moves rows and registers every row again itself.
		//
		// Contract: an id is guaranteed Delete-routable once Add returns
		// it. A Delete racing the very Add that creates its id — possible
		// only by learning the id from a search in the window between the
		// publish and this registration — may observe ErrNotFound;
		// retrying after Add returns always succeeds.
		ix.register(c, pe.Part, pe.Part.N-k)
		if pe.Part.Tail() >= foldTail {
			// A fold that fails (only an extent write can) loses nothing:
			// the epoch just published stays, its rows searchable in the
			// tail, and the next Add into this partition tries again.
			// PartitionStat.Tail above foldTail is how that shows.
			_, _ = ix.rebuild(c, pe, false)
		}
		ix.partMu[c].Unlock()
	}
	return nil
}

// register records the live rows of p from position from on as cell c's
// in the Delete routing table, if it has been built. The caller holds
// ix.partMu[c] (lock order: partMu[c], then locateMu) and p is c's
// latest epoch, or about to be published as it: positions are stable
// only while nothing can rebuild the partition.
func (ix *Index) register(c int, p *scan.Partition, from int) {
	ix.locateMu.Lock()
	defer ix.locateMu.Unlock()
	if ix.locate == nil {
		return
	}
	eachLive(c, p, from, ix.locate.set)
}

// Delete tombstones the vector with the given id by publishing a new
// epoch of its partition with the row's dead bit set — and, when the
// epoch has a Fast Scan layout, its block lane's. Base, tail and layout
// are shared with the predecessor epoch and one 4 096-bit chunk of each
// bit set is copied, so no code moves, no extent is written, and a
// Delete costs the same however many rows are already dead. It returns
// ErrNotFound when the id was never assigned or is no longer live.
//
// The routing table gives the id's cell and row. The row is read again
// under the cell's builder lock, which a rebuild — a fold or a
// compaction, the only things that move rows — also holds while it
// re-registers them; a row read before the lock could be one a rebuild
// has since given to another id.
func (ix *Index) Delete(id int64) error {
	ix.locateMu.Lock()
	if ix.locate == nil {
		// First Delete: build the routing table from the current
		// snapshot. Rows published after this load are registered by
		// their Add or rebuild.
		snap := ix.snap.Load()
		t, err := buildLocTable(len(snap.Parts), func(fn func(id int64, c, row int)) error {
			for c, pe := range snap.Parts {
				// Stubs carry no base id array — the extent stays pinned
				// for the duration of this partition's walk.
				p, _, release, err := pe.view()
				if err != nil {
					return err
				}
				eachLive(c, p, 0, fn)
				release()
			}
			return nil
		})
		if err != nil {
			ix.locateMu.Unlock() // the next Delete retries the build
			return fmt.Errorf("index: building delete routing table: %w", err)
		}
		ix.locate = t
	}
	c, _, ok := ix.locate.get(id)
	ix.locateMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}

	ix.partMu[c].Lock()
	defer ix.partMu[c].Unlock()
	ix.locateMu.Lock()
	_, row, ok := ix.locate.get(id)
	ix.locateMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id) // a racing Delete won
	}
	cur := ix.snap.Load().Parts[c]
	pe, err := ix.tombstoned(cur, row, id)
	if err != nil {
		return fmt.Errorf("index: deleting id %d from partition %d: %w", id, c, err)
	}
	ix.publishAt(c, pe)
	ix.locateMu.Lock()
	ix.locate.del(id)
	ix.locateMu.Unlock()
	return nil
}

// tombstoned returns the successor of cur with the row at position row,
// which must hold id, tombstoned. A paged epoch's extent is pinned for
// the check; the row's lane follows from the layout's group directory,
// which a stub keeps resident.
func (ix *Index) tombstoned(cur *PartEpoch, row int, id int64) (*PartEpoch, error) {
	p, _, release, err := cur.view()
	if err != nil {
		return nil, err
	}
	defer release()
	if row >= p.N {
		return nil, fmt.Errorf("locate names row %d of %d", row, p.N)
	}
	if got := p.ID(row); got != id {
		return nil, fmt.Errorf("locate names row %d, which holds id %d", row, got)
	}
	next, ok := cur.Part.CloneTombstone(row)
	if !ok {
		return nil, fmt.Errorf("locate names row %d, which is already dead", row)
	}
	return ix.successor(cur, next, cur.fast.Lane(row)), nil
}

// Live returns the number of indexed vectors that are not tombstoned.
func (ix *Index) Live() int { return ix.snap.Load().Live() }

// NextID returns the id the next Add will assign (persisted so that
// reloaded indexes never reuse ids).
func (ix *Index) NextID() int64 { return ix.nextID.Load() }
