package pqfastscan_test

import (
	"context"
	"strings"
	"testing"

	"pqfastscan"
	"pqfastscan/internal/scan"
	"pqfastscan/internal/simd/dispatch"
)

// backendPin returns a function that pins the process to one backend
// (dispatch.Force, the counterpart of PQ_FORCE_BACKEND): every Fast
// Scan runs on it until the next pin. The selection the test started
// with is restored when t ends.
func backendPin(t *testing.T) func(be pqfastscan.Backend) {
	orig := dispatch.Active()
	t.Cleanup(func() { _ = dispatch.Force(orig) })
	return func(be pqfastscan.Backend) {
		t.Helper()
		if err := dispatch.Force(be); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWithStatsOnEveryBackend: WithStats attaches the serving scan's
// counters — it pins nothing, and every backend reports the same ones
// as the others of its bound (which internal/scan/model's tests hold
// equal to that bound's model's): the default's, for the active
// backend's bound.
func TestWithStatsOnEveryBackend(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	pin, active := backendPin(t), pqfastscan.ActiveBackend()
	for _, nprobe := range []int{1, 3} {
		for qi := 0; qi < queries.Rows(); qi++ {
			pin(active)
			auto, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(nprobe), pqfastscan.WithStats())
			if err != nil {
				t.Fatal(err)
			}
			if auto.Stats == nil || auto.Stats.LowerBounds == 0 || auto.Stats.Pruned+auto.Stats.Candidates != auto.Stats.LowerBounds {
				t.Fatalf("WithStats attached %+v", auto.Stats)
			}
			ref := map[bool]*scan.Stats{active.ExactBound(): auto.Stats}
			for _, be := range pqfastscan.AvailableBackends() {
				pin(be)
				got, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(nprobe), pqfastscan.WithStats())
				if err != nil {
					t.Fatalf("WithStats on %v: %v", be, err)
				}
				if ref[be.ExactBound()] == nil {
					ref[be.ExactBound()] = got.Stats
				}
				if got.Stats == nil || *got.Stats != *ref[be.ExactBound()] {
					t.Fatalf("nprobe=%d q%d: backend %v counted %+v, the first of its bound %+v", nprobe, qi, be, got.Stats, ref[be.ExactBound()])
				}
				sameResultSlices(t, "stats/"+be.String(), auto.Results, got.Results)
			}
		}
	}
}

// TestDeprecatedEngineShim: WithEngine survives only for the frozen
// benchmark module, and must not lie. EngineNative changes nothing;
// EngineModel with KernelNaive answers exactly scan.Naive — the model's
// own oracle, so the claim is true by construction; EngineModel with any
// other kernel is an error saying where the model went.
func TestDeprecatedEngineShim(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	in := idx.Internal()
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		plain, err := idx.Search(ctx, q, 30)
		if err != nil {
			t.Fatal(err)
		}
		native, err := idx.Search(ctx, q, 30, pqfastscan.WithEngine(pqfastscan.EngineNative))
		if err != nil {
			t.Fatal(err)
		}
		sameResultSlices(t, "EngineNative is a no-op", plain.Results, native.Results)

		oracle, err := idx.Search(ctx, q, 30,
			pqfastscan.WithKernel(pqfastscan.KernelNaive), pqfastscan.WithEngine(pqfastscan.EngineModel))
		if err != nil {
			t.Fatal(err)
		}
		part := in.RoutePartition(q)
		want, _ := scan.Naive(in.Parts()[part], in.Tables(q, part), 30)
		sameResultSlices(t, "EngineModel+KernelNaive is scan.Naive", want, oracle.Results)
	}
	for _, kern := range []pqfastscan.Kernel{pqfastscan.KernelFastScan, pqfastscan.KernelLibpq} {
		_, err := idx.Search(ctx, queries.Row(0), 10,
			pqfastscan.WithKernel(kern), pqfastscan.WithEngine(pqfastscan.EngineModel))
		if err == nil || !strings.Contains(err.Error(), "pqbench") || !strings.Contains(err.Error(), "internal/scan/model") {
			t.Fatalf("EngineModel+%v returned %v, want an error naming internal/scan/model and pqbench", kern, err)
		}
	}
}

// TestParseKernelListsTheThree: the kernels a search can name are three;
// the laboratory's labels are refused with the list.
func TestParseKernelListsTheThree(t *testing.T) {
	for _, k := range pqfastscan.Kernels() {
		if got, err := pqfastscan.ParseKernel(k.String()); err != nil || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v", k, got, err)
		}
	}
	for _, name := range []string{"avx", "gather", "quantonly", "fastpq256", "model"} {
		_, err := pqfastscan.ParseKernel(name)
		if err == nil || !strings.Contains(err.Error(), "naive, libpq, fastpq") {
			t.Errorf("ParseKernel(%q) returned %v, want an error listing the three kernels", name, err)
		}
	}
}

// TestBackendsReturnIdenticalResults is the public-API face of the
// cross-backend exactness invariant: every available backend (assembly
// or SWAR), the process pinned to it, returns the same neighbor lists
// as the startup selection — single-probe, multi-probe and batched.
func TestBackendsReturnIdenticalResults(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	pin, active := backendPin(t), pqfastscan.ActiveBackend()

	for _, nprobe := range []int{1, 3} {
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			pin(active)
			auto, err := idx.Search(ctx, q, 25, pqfastscan.WithNProbe(nprobe))
			if err != nil {
				t.Fatal(err)
			}
			for _, be := range pqfastscan.AvailableBackends() {
				pin(be)
				got, err := idx.Search(ctx, q, 25, pqfastscan.WithNProbe(nprobe))
				if err != nil {
					t.Fatal(err)
				}
				sameResultSlices(t, "backend/"+be.String(), auto.Results, got.Results)
			}
		}
	}

	for _, be := range pqfastscan.AvailableBackends() {
		pin(active)
		autoBatch, err := idx.SearchBatch(ctx, queries, 25)
		if err != nil {
			t.Fatal(err)
		}
		pin(be)
		batch, err := idx.SearchBatch(ctx, queries, 25)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			sameResultSlices(t, "batch-backend/"+be.String(), autoBatch[i].Results, batch[i].Results)
		}
	}
}

// TestActiveBackendSurface sanity-checks the introspection surface the
// serving layer logs and exports.
func TestActiveBackendSurface(t *testing.T) {
	be := pqfastscan.ActiveBackend()
	if be == pqfastscan.BackendAuto {
		t.Fatal("ActiveBackend returned auto")
	}
	avail := pqfastscan.AvailableBackends()
	if len(avail) == 0 {
		t.Fatal("no available backends")
	}
	hasActive := false
	for _, b := range avail {
		hasActive = hasActive || b == be
	}
	if !hasActive {
		t.Fatalf("active backend %v not in available set %v", be, avail)
	}
}
