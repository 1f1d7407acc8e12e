// Online mutation, copy-on-write: the index accepts new vectors and
// deletions after construction, without retraining and without ever
// blocking queries. New vectors are encoded against the trained coarse
// and product quantizers — exactly the codes a from-scratch rebuild over
// the same vectors would produce — and each affected partition gets a
// successor epoch that shares its predecessor's base (row-major codes,
// Fast Scan layout, disk extent) and differs in what the mutation
// touched: an Add copies the tail with the batch appended, a Delete
// copies the tombstone set with one id more. Epochs are published with
// a single snapshot swap (snapshot.go). A tail that has reached
// foldTail rows is folded into a new base, and tombstoned codes are
// dropped, by the one rebuild of compact.go.
package index

import (
	"errors"
	"fmt"

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
func (ix *Index) EncodeRoute(vecs vec.Matrix) (cells []int, codes []uint8, err error) {
	if vecs.Dim != ix.Dim {
		return nil, nil, fmt.Errorf("index: vector dim %d != index dim %d", vecs.Dim, ix.Dim)
	}
	if ix.PQ.Bits > 8 {
		return nil, nil, fmt.Errorf("index: online Add requires at most 8 bits per component, index uses %v", ix.PQ.Config)
	}
	n := vecs.Rows()
	for i := 0; i < n; i++ {
		if err := CheckVector(vecs.Row(i)); err != nil {
			return nil, nil, fmt.Errorf("vector %d: %w", i, err)
		}
	}
	m := ix.PQ.M
	cells = make([]int, n)
	codes = make([]uint8, n*m)
	residual := make([]float32, ix.Dim)
	for i := 0; i < n; i++ {
		row := vecs.Row(i)
		c, _ := vec.ArgminL2(row, ix.Coarse.Data, ix.Dim)
		cRow := ix.Coarse.Row(c)
		for d, v := range row {
			residual[d] = v - cRow[d]
		}
		ix.PQ.Encode(residual, codes[i*m:(i+1)*m])
		cells[i] = c
	}
	return cells, codes, nil
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
		if len(chunks[c].ids) == 0 {
			continue
		}
		ix.partMu[c].Lock()
		cur := ix.snap.Load().Parts[c]
		pe := ix.publishAt(c, ix.successor(cur, cur.Part.CloneAppend(chunks[c].codes, chunks[c].ids)))
		if pe.Part.Tail() >= foldTail {
			// A fold that fails (only an extent write can) loses nothing:
			// the epoch just published stays, its rows searchable in the
			// tail, and the next Add into this partition tries again.
			// PartitionStat.Tail above foldTail is how that shows.
			_, _ = ix.rebuild(c, pe, false)
		}
		ix.partMu[c].Unlock()
	}

	// Register the new ids for Delete routing after their partitions are
	// published: if a concurrent Delete built the locate map between our
	// publish and this point, the build already saw the ids in the
	// snapshot. A Delete may even have tombstoned one of them already
	// (it discovered the id through a search) — those stay unregistered,
	// so the map never claims a dead id is live.
	//
	// Contract: an id is guaranteed Delete-routable once Add returns it.
	// A Delete racing the very Add that creates its id — possible only
	// by learning the id from a search in the window between the
	// partition publish and this registration — may observe ErrNotFound;
	// retrying after Add returns always succeeds.
	ix.locateMu.Lock()
	if ix.locate != nil {
		s := ix.snap.Load()
		for i, id := range ids {
			if !s.Parts[cells[i]].Part.IsDead(id) {
				ix.locate[id] = cells[i]
			}
		}
	}
	ix.locateMu.Unlock()
	return nil
}

// Delete tombstones the vector with the given id by publishing a new
// epoch of its partition whose tombstone set grew by one; base, tail and
// any built Fast Scan layout are shared with the predecessor epoch, so
// no code moves and no extent is written. It returns ErrNotFound when
// the id was never assigned or is no longer live.
//
// Each delete copies the partition's tombstone set (copy-on-write), so
// the cost of the D-th uncompacted delete into one partition is O(D).
// The online compactor resets D to zero; with the serving layer's
// dead-ratio policy enabled, D stays bounded by threshold × partition
// size.
func (ix *Index) Delete(id int64) error {
	ix.locateMu.Lock()
	if ix.locate == nil {
		// First Delete: build the id -> partition routing table from the
		// current snapshot. Ids published after this load are registered
		// by their Add (see the ordering note there).
		ix.locate = make(map[int64]int)
		for c, pe := range ix.snap.Load().Parts {
			// Stubs carry no base id array — the extent stays pinned for
			// the duration of this partition's walk.
			p, release, err := pe.rows()
			if err != nil {
				ix.locate = nil // retry the build on the next Delete
				ix.locateMu.Unlock()
				return fmt.Errorf("index: building delete routing table: %w", err)
			}
			for i := 0; i < p.N; i++ {
				if pid := p.ID(i); !p.IsDead(pid) {
					ix.locate[pid] = c
				}
			}
			release()
		}
	}
	c, ok := ix.locate[id]
	if !ok {
		ix.locateMu.Unlock()
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	delete(ix.locate, id)
	ix.locateMu.Unlock()

	ix.partMu[c].Lock()
	defer ix.partMu[c].Unlock()
	cur := ix.snap.Load().Parts[c]
	next, ok := cur.Part.CloneTombstone(id)
	if !ok {
		// locate said live but the partition disagrees — possible only if
		// the id was dropped by an out-of-band partition replacement.
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	ix.publishAt(c, ix.successor(cur, next))
	return nil
}

// Live returns the number of indexed vectors that are not tombstoned.
func (ix *Index) Live() int { return ix.snap.Load().Live() }

// NextID returns the id the next Add will assign (persisted so that
// reloaded indexes never reuse ids).
func (ix *Index) NextID() int64 { return ix.nextID.Load() }
