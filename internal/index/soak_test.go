package index

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/topk"
	"pqfastscan/internal/vec"
)

// TestMutateUnderQuerySoak is the epoch-consistency soak of the
// lock-free read path: concurrent Add / Delete / Search / compaction
// traffic (run under -race in CI's soak job), with two classes of
// assertion.
//
// During the storm, every search must observe *some* consistent epoch:
// no error, results sorted by distance, no duplicate ids, and no id
// outside the set of ids that were ever allocated — a torn partition
// (half-published codes, a scanner over swapped-out state) would break
// at least one of these.
//
// After the storm quiesces, the index must agree exactly — ids and
// distances — with a serial oracle: the expected live set is replayed
// single-threaded (route + encode every surviving vector through the
// trained quantizers, exactly what Add does) and its full-probe exact
// top-k is computed from the distance tables alone. Recall is therefore
// not merely "unchanged": the concurrent index's answers are
// bit-identical to the serial ground truth, and its Delete routing
// table equals a fresh walk of its snapshot. It runs on a RAM index and
// on a paged one.
func TestMutateUnderQuerySoak(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(map[bool]string{false: "ram", true: "paged"}[paged], func(t *testing.T) {
			mutateUnderQuerySoak(t, paged)
		})
	}
}

func mutateUnderQuerySoak(t *testing.T, paged bool) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 404, Dim: 32})
	learn := gen.Generate(2000)
	base := gen.Generate(6000)
	opt := DefaultOptions()
	opt.Partitions = 4
	opt.Seed = 404
	ix, err := Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	if paged {
		if err := ix.AttachStore(t.TempDir(), 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	queries := gen.Generate(6)
	ctx := context.Background()

	// Warm the Fast Scan layouts so mutations exercise the
	// clone-and-repack path from the first round.
	if _, err := ix.Query(ctx, Request{Query: queries.Row(0), K: 5, Kernel: KernelFastScan, NProbe: opt.Partitions}); err != nil {
		t.Fatal(err)
	}

	const (
		adders       = 2
		addsPerAdder = 40
		addBatch     = 25
		searchers    = 4
	)
	// Each adder generates from its own deterministic stream and records
	// id -> vector for the oracle replay.
	type addRecord struct {
		ids  []int64
		vecs vec.Matrix
	}
	records := make([]addRecord, adders)
	addedIDs := make(chan int64, adders*addsPerAdder*addBatch)

	var (
		wg         sync.WaitGroup
		firstErr   atomic.Value
		deletedMu  sync.Mutex
		deletedIDs = make(map[int64]bool)
		stop       = make(chan struct{})
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }

	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			sub := dataset.NewGenerator(dataset.Config{Seed: 9000 + uint64(a), Dim: 32})
			all := vec.NewMatrix(addsPerAdder*addBatch, 32)
			var ids []int64
			for i := 0; i < addsPerAdder; i++ {
				batch := sub.Generate(addBatch)
				copy(all.Data[i*addBatch*32:], batch.Data)
				got, err := ix.Add(batch)
				if err != nil {
					fail(err)
					return
				}
				ids = append(ids, got...)
				for _, id := range got {
					addedIDs <- id
				}
			}
			records[a] = addRecord{ids: ids, vecs: all}
		}(a)
	}

	// Deleter: tombstone a stride of build-time ids plus a sample of the
	// freshly added ones, and intersperse deletes that must fail.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(0); id < int64(base.Rows()); id += 9 {
			if err := ix.Delete(id); err != nil {
				fail(err)
				return
			}
			deletedMu.Lock()
			deletedIDs[id] = true
			deletedMu.Unlock()
			if id%81 == 0 {
				// Never-assigned ids must keep reporting ErrNotFound even
				// mid-storm.
				if err := ix.Delete(1 << 40); err == nil {
					fail(errNotFoundExpected)
					return
				}
			}
		}
		// Receive with a timeout rather than ranging: if an adder fails
		// and sends fewer ids than expected, the deleter must exit and
		// let the test report the adder's error instead of deadlocking
		// the storm (addedIDs is only closed after every worker joins).
		timeout := time.After(30 * time.Second)
		for taken := 0; taken < adders*addsPerAdder*addBatch/2; taken++ {
			var id int64
			select {
			case id = <-addedIDs:
			case <-timeout:
				return
			}
			if taken%4 == 0 {
				if err := ix.Delete(id); err != nil {
					fail(err)
					return
				}
				deletedMu.Lock()
				deletedIDs[id] = true
				deletedMu.Unlock()
			}
		}
	}()

	// Compactor: reclaim continuously while the storm runs. It joins its
	// own WaitGroup — stop is closed once the adders, deleter and
	// searchers drain, so it cannot be inside the group it waits on.
	var compactorWG sync.WaitGroup
	compactorWG.Add(1)
	go func() {
		defer compactorWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.Compact(0.01); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Searchers: every result set must be internally consistent.
	maxEverID := int64(base.Rows() + adders*addsPerAdder*addBatch)
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			paths := scanPaths()
			for i := 0; i < 60; i++ {
				req := paths[(w+i)%len(paths)]
				req.Query, req.K, req.NProbe = queries.Row((w+i)%queries.Rows()), 20, 1+(w+i)%opt.Partitions
				resp, err := ix.Query(ctx, req)
				if err != nil {
					fail(err)
					return
				}
				seen := make(map[int64]bool, len(resp.Results))
				for r, res := range resp.Results {
					if r > 0 && res.Distance < resp.Results[r-1].Distance {
						fail(errUnsorted)
						return
					}
					if seen[res.ID] {
						fail(errDuplicate)
						return
					}
					seen[res.ID] = true
					if res.ID < 0 || res.ID >= maxEverID {
						fail(errUnknownID)
						return
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	compactorWG.Wait()
	close(addedIDs)
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}

	// One final sweep so the quiesced index also holds zero tombstones.
	if _, err := ix.Compact(0); err != nil {
		t.Fatal(err)
	}
	for _, st := range ix.PartitionStats() {
		if st.Dead != 0 {
			t.Fatalf("partition %d holds %d tombstones after final compaction", st.Partition, st.Dead)
		}
		if st.Live != ix.Parts()[st.Partition].N {
			t.Fatalf("partition %d stat live %d != partition rows %d", st.Partition, st.Live, ix.Parts()[st.Partition].N)
		}
	}

	// --- Serial oracle -------------------------------------------------
	// Replay the surviving vector set single-threaded: every live id with
	// its vector, routed and encoded through the trained quantizers.
	type liveVec struct {
		id  int64
		row []float32
	}
	var live []liveVec
	for id := int64(0); id < int64(base.Rows()); id++ {
		if !deletedIDs[id] {
			live = append(live, liveVec{id: id, row: base.Row(int(id))})
		}
	}
	for _, rec := range records {
		for i, id := range rec.ids {
			if !deletedIDs[id] {
				live = append(live, liveVec{id: id, row: rec.vecs.Row(i)})
			}
		}
	}
	if got := ix.Live(); got != len(live) {
		t.Fatalf("Live() = %d after storm, oracle has %d survivors", got, len(live))
	}
	checkRouting(t, ix)
	checkLayouts(t, ix)

	cells := make([]int, len(live))
	codes := make([][]uint8, len(live))
	residual := make([]float32, 32)
	for i, lv := range live {
		c, _ := vec.ArgminL2(lv.row, ix.Coarse.Data, 32)
		cells[i] = c
		cRow := ix.Coarse.Row(c)
		for d, v := range lv.row {
			residual[d] = v - cRow[d]
		}
		code := make([]uint8, ix.PQ.M)
		ix.PQ.Encode(residual, code)
		codes[i] = code
	}

	const k = 30
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		// Oracle: exact full-probe ADC top-k from the distance tables.
		heap := topk.New(k)
		tables := make(map[int][]float32)
		for i := range live {
			c := cells[i]
			tab, ok := tables[c]
			if !ok {
				tt := ix.Tables(q, c)
				tab = tt.Data
				tables[c] = tab
			}
			var d float32
			for j := 0; j < ix.PQ.M; j++ {
				d += tab[j*256+int(codes[i][j])]
			}
			heap.Push(live[i].id, d)
		}
		want := heap.Results()

		for _, req := range scanPaths() {
			req.Query, req.K, req.NProbe = q, k, opt.Partitions
			resp, err := ix.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(want) {
				t.Fatalf("query %d %v/%v: %d results, oracle %d", qi, req.Kernel, req.Backend, len(resp.Results), len(want))
			}
			for r := range want {
				if resp.Results[r] != want[r] {
					t.Fatalf("query %d %v/%v rank %d: index %+v, serial oracle %+v",
						qi, req.Kernel, req.Backend, r, resp.Results[r], want[r])
				}
			}
		}
	}
}

// Sentinel errors for the soak's lock-free assertions (allocating
// formatted errors inside the hot loops would perturb timing).
var (
	errNotFoundExpected = errSoak("delete of never-assigned id succeeded mid-storm")
	errUnsorted         = errSoak("search results not sorted by distance")
	errDuplicate        = errSoak("duplicate id in one result set")
	errUnknownID        = errSoak("result id outside every allocated range")
)

type errSoak string

func (e errSoak) Error() string { return string(e) }
