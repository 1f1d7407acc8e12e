package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pqfastscan/internal/dataset"
	"pqfastscan/internal/index"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/vec"
)

func buildSmall(t *testing.T) (*index.Index, *dataset.Generator) {
	t.Helper()
	gen := dataset.NewGenerator(dataset.Config{Seed: 55, Dim: 32})
	learn := gen.Generate(2000)
	base := gen.Generate(8000)
	opt := index.DefaultOptions()
	opt.Partitions = 3
	opt.Seed = 55
	ix, err := index.Build(learn, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix, gen
}

// search1 is the query the round-trip tests compare — one probe —
// returning the neighbors and the cell they came from.
func search1(t *testing.T, ix *index.Index, q []float32, k int, kern index.Kernel) ([]index.Result, int) {
	t.Helper()
	resp, err := ix.Query(context.Background(), index.Request{Query: q, K: k, Kernel: kern})
	if err != nil {
		t.Fatalf("kernel %v: %v", kern, err)
	}
	return resp.Results, resp.Partitions[0]
}

func TestRoundtripIdenticalResults(t *testing.T) {
	ix, gen := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim != ix.Dim || loaded.Partitions() != ix.Partitions() {
		t.Fatalf("shape mismatch after reload")
	}
	if loaded.Options().FastScan.Keep != ix.Options().FastScan.Keep {
		t.Fatal("options lost in roundtrip")
	}
	queries := gen.Generate(5)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		for _, kern := range []index.Kernel{index.KernelLibpq, index.KernelFastScan} {
			want, wantPart := search1(t, ix, q, 20, kern)
			got, gotPart := search1(t, loaded, q, 20, kern)
			if wantPart != gotPart {
				t.Fatalf("query %d routed differently after reload", qi)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("query %d kernel %v result %d differs after reload", qi, kern, i)
				}
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix, gen := buildSmall(t)
	path := filepath.Join(t.TempDir(), "test.pqfsidx")
	if err := SaveIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Generate(1).Row(0)
	want, _ := search1(t, ix, q, 5, index.KernelFastScan)
	got, _ := search1(t, loaded, q, 5, index.KernelFastScan)
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("results differ after file roundtrip")
		}
	}
}

func TestRejectsBadMagic(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("NOTANIDX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRejectsTruncated(t *testing.T) {
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{9, 20, len(data) / 2, len(data) - 2} {
		if _, err := ReadIndex(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestRejectsCorruption(t *testing.T) {
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Flip a bit in the middle of the payload: the CRC must catch it.
	data[len(data)/2] ^= 0x40
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted payload accepted")
	}
}

func TestRejectsInconsistentHeader(t *testing.T) {
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// dim field is right after the 8-byte magic; make m*subdim != dim.
	data[8] = 0xff
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("inconsistent header accepted")
	}
}

// TestTruncationSweep: no prefix of a valid index file may load
// successfully (systematic failure injection across the whole file).
func TestTruncationSweep(t *testing.T) {
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	step := len(data)/200 + 1
	for cut := 0; cut < len(data); cut += step {
		if _, err := ReadIndex(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d loaded successfully", cut, len(data))
		}
	}
}

// TestBitFlipSweep: single-bit corruption anywhere in the payload must be
// detected (CRC) or rejected (header validation).
func TestBitFlipSweep(t *testing.T) {
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	step := len(orig)/64 + 1
	for pos := 8; pos < len(orig); pos += step {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0x01
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Fatalf("bit flip at byte %d loaded successfully", pos)
		}
	}
}

// TestReservedOptionByte: option byte 12 once selected a group visit
// order; it is reserved now — written 0 and ignored on read. A file
// with it set loads and answers every kernel bit-identically (results,
// Stats, probed cells) to the same file with it clear, and a
// non-default keep fraction survives the roundtrip.
func TestReservedOptionByte(t *testing.T) {
	gen := dataset.NewGenerator(dataset.Config{Seed: 91, Dim: 32})
	opt := index.DefaultOptions()
	opt.Partitions = 3
	opt.Seed = 91
	opt.FastScan.Keep = 0.02
	ix, err := index.Build(gen.Generate(2000), gen.Generate(9000), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	clear := buf.Bytes()
	walEpoch, _, _ := sections(ix, clear, 0)
	reserved := walEpoch - 8 - 14 + 12 // nextID, then the options block
	if clear[reserved] != 0 {
		t.Fatalf("reserved option byte written as %d", clear[reserved])
	}
	set := append([]byte(nil), clear...)
	set[reserved] = 1
	set = fixCRC(set)

	var loaded [2]*index.Index
	for i, data := range [][]byte{clear, set} {
		if loaded[i], err = ReadIndex(bytes.NewReader(data)); err != nil {
			t.Fatalf("byte 12 = %d: %v", i, err)
		}
		if got := loaded[i].Options().FastScan; got != opt.FastScan {
			t.Fatalf("byte 12 = %d: FastScan options %+v after the roundtrip, want %+v", i, got, opt.FastScan)
		}
	}
	ctx := context.Background()
	queries := gen.Generate(4)
	for qi := 0; qi < queries.Rows(); qi++ {
		for _, kern := range []index.Kernel{index.KernelNaive, index.KernelLibpq, index.KernelFastScan} {
			for _, nprobe := range []int{1, 2} {
				req := index.Request{Query: queries.Row(qi), K: 20, Kernel: kern, NProbe: nprobe}
				var resp [3]*index.Response
				for i, x := range []*index.Index{ix, loaded[0], loaded[1]} {
					if resp[i], err = x.Query(ctx, req); err != nil {
						t.Fatal(err)
					}
				}
				for i := 1; i < 3; i++ {
					if !slices.Equal(resp[i].Results, resp[0].Results) || resp[i].Stats != resp[0].Stats ||
						!slices.Equal(resp[i].Partitions, resp[0].Partitions) {
						t.Fatalf("q%d kernel %v nprobe %d: file %d answers %+v, the built index %+v", qi, kern, nprobe, i-1, resp[i], resp[0])
					}
				}
			}
		}
	}
}

// TestRefusesOtherPQShapes: every index is PQ 8×8, so a header naming
// any other shape — PQ 16×4 or 4×16, each consistent with the file's
// dimension — is refused before a codebook is read, with an error that
// names the one shape served.
func TestRefusesOtherPQShapes(t *testing.T) {
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for _, shape := range []quantizer.Config{quantizer.PQ16x4, quantizer.PQ4x16} {
		data := slices.Clone(buf.Bytes())
		// After the 8-byte magic: dim, partitions, m, bits, subdim.
		le.PutUint32(data[16:], uint32(shape.M))
		le.PutUint32(data[20:], uint32(shape.Bits))
		le.PutUint32(data[24:], uint32(ix.Dim/shape.M))
		_, err := ReadIndex(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "PQ 8×8") {
			t.Fatalf("a PQ %d×%d header: %v, want an error naming PQ 8×8", shape.M, shape.Bits, err)
		}
	}
}

// v1File is a version-1 file frozen when this build still wrote the
// format: an index.Build of 600 16-dimensional vectors from dataset seed
// 31 (learn 800, 2 partitions, seed 31). Nothing writes or reads
// version 1 any more; this file is how the reader is held to refusing it.
const v1File = "testdata/v1.pqfsidx"

// TestRefusesRetiredFormats: the reader reads version 3 only. The frozen
// version-1 file, a version-3 file with its version byte set to 2, and
// every other version byte are refused by an error naming that version
// — before any section is read, so the bare 8-byte magic is refused
// the same way, not with an EOF.
func TestRefusesRetiredFormats(t *testing.T) {
	v1, err := os.ReadFile(v1File)
	if err != nil {
		t.Fatal(err)
	}
	if v1[7] != 1 {
		t.Fatalf("%s has version byte %d", v1File, v1[7])
	}
	ix, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	if _, err := ReadIndex(bytes.NewReader(v3)); err != nil {
		t.Fatalf("the version-3 file: %v", err)
	}
	inputs := map[string][]byte{"frozen v1": v1}
	for _, v := range []byte{0, 1, 2, 4, 255} {
		patched := append([]byte(nil), v3...)
		patched[7] = v
		inputs[fmt.Sprintf("v3 as version %d", v)] = patched
		inputs[fmt.Sprintf("magic of version %d", v)] = patched[:8]
	}
	for name, data := range inputs {
		_, err := ReadIndex(bytes.NewReader(data))
		want := fmt.Sprintf("unsupported format version %d ", data[7])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want an error naming %q", name, err, want)
		}
	}
}

// TestRoundtripMutatedIndex: appended codes and tombstones survive the
// roundtrip; the reloaded index answers exactly like the
// mutated original.
func TestRoundtripMutatedIndex(t *testing.T) {
	ix, gen := buildSmall(t)
	added, err := ix.Add(gen.Generate(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(added); i += 4 {
		if err := ix.Delete(added[i]); err != nil {
			t.Fatalf("delete of %d failed: %v", added[i], err)
		}
	}
	for id := int64(0); id < 8000; id += 13 {
		if err := ix.Delete(id); err != nil {
			t.Fatalf("delete of %d failed: %v", id, err)
		}
	}

	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NextID() != ix.NextID() {
		t.Fatalf("next id %d, want %d", loaded.NextID(), ix.NextID())
	}
	if loaded.Live() != ix.Live() {
		t.Fatalf("live count %d, want %d", loaded.Live(), ix.Live())
	}
	queries := gen.Generate(5)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		for _, kern := range []index.Kernel{index.KernelNaive, index.KernelFastScan} {
			want, _ := search1(t, ix, q, 25, kern)
			have, _ := search1(t, loaded, q, 25, kern)
			if len(want) != len(have) {
				t.Fatalf("query %d kernel %v: size %d vs %d", qi, kern, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("query %d kernel %v rank %d differs after mutated roundtrip", qi, kern, i)
				}
			}
		}
	}
}

// TestRoundtripCompactedIndex: compaction rewrites partitions without
// their tombstones; the compacted image must persist with zero
// tombstones (ids stable) and reload to bit-identical answers.
func TestRoundtripCompactedIndex(t *testing.T) {
	ix, gen := buildSmall(t)
	added, err := ix.Add(gen.Generate(400))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(added); i += 3 {
		if err := ix.Delete(added[i]); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 8000; id += 10 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	liveBefore := ix.Live()
	results, err := ix.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("nothing compacted")
	}

	var buf bytes.Buffer
	if err := WriteIndex(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Live() != liveBefore {
		t.Fatalf("live %d after compacted roundtrip, want %d", loaded.Live(), liveBefore)
	}
	for pi, p := range loaded.Parts() {
		if p.DeadCount() != 0 {
			t.Fatalf("partition %d reloaded with %d tombstones after compaction", pi, p.DeadCount())
		}
		if p.N != p.Live() {
			t.Fatalf("partition %d rows %d != live %d", pi, p.N, p.Live())
		}
	}
	if loaded.NextID() != ix.NextID() {
		t.Fatalf("id allocator %d after reload, want %d (ids must stay stable)", loaded.NextID(), ix.NextID())
	}

	queries := gen.Generate(4)
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		want, _ := search1(t, ix, q, 25, index.KernelFastScan)
		have, _ := search1(t, loaded, q, 25, index.KernelFastScan)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("query %d rank %d differs after compacted roundtrip", qi, i)
			}
		}
	}
}

// TestSaveDuringCompaction: WriteIndex serializes one atomically loaded
// snapshot, so saving while compaction (and deletes) republish
// partitions must produce a loadable, internally consistent image every
// time — no partial compactions, no id loss.
func TestSaveDuringCompaction(t *testing.T) {
	ix, gen := buildSmall(t)
	if _, err := ix.Add(gen.Generate(500)); err != nil {
		t.Fatal(err)
	}
	liveWant := ix.Live() // deletes below remove exactly deleteN distinct live ids
	const deleteN = 2000
	done := make(chan error, 1)
	go func() {
		for id := int64(0); id < deleteN; id++ {
			if err := ix.Delete(id); err != nil {
				done <- err
				return
			}
			if id%50 == 0 {
				if _, err := ix.Compact(0.001); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for i := 0; i < 12; i++ {
		var buf bytes.Buffer
		if err := WriteIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("snapshot %d did not load: %v", i, err)
		}
		// Each image is one consistent snapshot: ids are unique across
		// partitions and the allocator is beyond every persisted id.
		seen := make(map[int64]bool)
		maxID := int64(-1)
		for _, p := range loaded.Parts() {
			for j := 0; j < p.N; j++ {
				id := p.ID(j)
				if seen[id] {
					t.Fatalf("snapshot %d: id %d appears twice", i, id)
				}
				seen[id] = true
				if id > maxID {
					maxID = id
				}
			}
		}
		if loaded.NextID() <= maxID {
			t.Fatalf("snapshot %d: next id %d not beyond max persisted id %d", i, loaded.NextID(), maxID)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Compact(0); err != nil {
		t.Fatal(err)
	}
	if got := ix.Live(); got != liveWant-deleteN {
		t.Fatalf("live %d after storm, want %d", got, liveWant-deleteN)
	}
}

// TestSaveDuringMutation: WriteIndex serializes one atomically loaded
// epoch snapshot, so saving while Add/Delete traffic is in flight must
// neither race (run under -race) nor produce a torn file: every written
// image must load cleanly with a consistent id allocator.
func TestSaveDuringMutation(t *testing.T) {
	ix, gen := buildSmall(t)
	extra := gen.Generate(300)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < extra.Rows(); i++ {
			ids, err := ix.Add(vec.Matrix{Data: extra.Row(i), Dim: 32})
			if err != nil {
				done <- err
				return
			}
			if i%4 == 0 {
				if err := ix.Delete(ids[0]); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := WriteIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("snapshot %d did not load: %v", i, err)
		}
		maxID := int64(-1)
		for _, p := range loaded.Parts() {
			for j := 0; j < p.N; j++ {
				if id := p.ID(j); id > maxID {
					maxID = id
				}
			}
		}
		if loaded.NextID() <= maxID {
			t.Fatalf("snapshot %d: next id %d not beyond max persisted id %d", i, loaded.NextID(), maxID)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTailsPersistFlattened: a file holds its partitions' rows base then
// tail, back to back, so an index saved with rows waiting in its tails
// writes byte for byte what it writes once CompactPartition has folded
// them — RAM and paged alike — and what reloads answers the same. A
// writer that forgot the tail would drop acknowledged rows from the
// snapshot.
func TestTailsPersistFlattened(t *testing.T) {
	for _, paged := range []bool{false, true} {
		ix, gen := buildSmall(t)
		if paged {
			if err := ix.AttachStore(t.TempDir(), 1<<30); err != nil {
				t.Fatal(err)
			}
		}
		batch := gen.Generate(500)
		for i := 0; i < batch.Rows(); i += 50 {
			if _, err := ix.Add(vec.Matrix{Data: batch.Data[i*batch.Dim : (i+50)*batch.Dim], Dim: batch.Dim}); err != nil {
				t.Fatal(err)
			}
		}
		tails := 0
		for _, st := range ix.PartitionStats() {
			tails += st.Tail
		}
		if tails != batch.Rows() {
			t.Fatalf("paged=%v: %d rows in the tails, want all %d added", paged, tails, batch.Rows())
		}
		var withTails bytes.Buffer
		if err := WriteIndex(&withTails, ix); err != nil {
			t.Fatal(err)
		}

		for c := 0; c < ix.Partitions(); c++ {
			if _, err := ix.CompactPartition(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range ix.PartitionStats() {
			if st.Tail != 0 {
				t.Fatalf("paged=%v: CompactPartition left a tail of %d in partition %d", paged, st.Tail, st.Partition)
			}
		}
		var folded bytes.Buffer
		if err := WriteIndex(&folded, ix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(withTails.Bytes(), folded.Bytes()) {
			t.Fatalf("paged=%v: the file written with %d rows in tails (%d bytes) differs from the one written after the fold (%d bytes)",
				paged, tails, withTails.Len(), folded.Len())
		}

		loaded, err := ReadIndex(&withTails)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Live() != ix.Live() || loaded.NextID() != ix.NextID() {
			t.Fatalf("paged=%v: reloaded %d live rows / next id %d, want %d / %d", paged, loaded.Live(), loaded.NextID(), ix.Live(), ix.NextID())
		}
		queries := gen.Generate(5)
		for qi := 0; qi < queries.Rows(); qi++ {
			for _, kern := range []index.Kernel{index.KernelNaive, index.KernelLibpq, index.KernelFastScan} {
				want, _ := search1(t, ix, queries.Row(qi), 25, kern)
				have, _ := search1(t, loaded, queries.Row(qi), 25, kern)
				if !slices.Equal(want, have) {
					t.Fatalf("paged=%v query %d kernel %v: answer differs after reload", paged, qi, kern)
				}
			}
		}
	}
}
