package pqfastscan_test

import (
	"context"
	"strings"
	"testing"

	"pqfastscan"
	"pqfastscan/internal/scan"
)

// TestWithStatsOnEveryBackend: WithStats attaches the serving scan's
// counters — it pins nothing, so it composes with WithBackend, and every
// backend reports the same ones (which internal/scan/model's tests hold
// equal to the instruction-counting model's).
func TestWithStatsOnEveryBackend(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	for _, nprobe := range []int{1, 3} {
		for qi := 0; qi < queries.Rows(); qi++ {
			auto, err := idx.Search(ctx, queries.Row(qi), 10, pqfastscan.WithNProbe(nprobe), pqfastscan.WithStats())
			if err != nil {
				t.Fatal(err)
			}
			if auto.Stats == nil || auto.Stats.LowerBounds == 0 || auto.Stats.Pruned+auto.Stats.Candidates != auto.Stats.LowerBounds {
				t.Fatalf("WithStats attached %+v", auto.Stats)
			}
			for _, be := range pqfastscan.AvailableBackends() {
				got, err := idx.Search(ctx, queries.Row(qi), 10,
					pqfastscan.WithNProbe(nprobe), pqfastscan.WithStats(), pqfastscan.WithBackend(be))
				if err != nil {
					t.Fatalf("WithStats+WithBackend(%v): %v", be, err)
				}
				if got.Stats == nil || *got.Stats != *auto.Stats {
					t.Fatalf("nprobe=%d q%d: backend %v counted %+v, auto %+v", nprobe, qi, be, got.Stats, auto.Stats)
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
// or SWAR), explicitly pinned with WithBackend, returns the same
// neighbor lists as the default auto selection — single-probe,
// multi-probe and batched.
func TestBackendsReturnIdenticalResults(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()

	for _, nprobe := range []int{1, 3} {
		for qi := 0; qi < queries.Rows(); qi++ {
			q := queries.Row(qi)
			auto, err := idx.Search(ctx, q, 25, pqfastscan.WithNProbe(nprobe))
			if err != nil {
				t.Fatal(err)
			}
			for _, be := range pqfastscan.AvailableBackends() {
				got, err := idx.Search(ctx, q, 25,
					pqfastscan.WithNProbe(nprobe), pqfastscan.WithBackend(be))
				if err != nil {
					t.Fatal(err)
				}
				sameResultSlices(t, "backend/"+be.String(), auto.Results, got.Results)
			}
		}
	}

	for _, be := range pqfastscan.AvailableBackends() {
		autoBatch, err := idx.SearchBatch(ctx, queries, 25)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := idx.SearchBatch(ctx, queries, 25, pqfastscan.WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			sameResultSlices(t, "batch-backend/"+be.String(), autoBatch[i].Results, batch[i].Results)
		}
	}
}

// TestBackendOptionRejections: an unavailable backend fails fast with an
// actionable error.
func TestBackendOptionRejections(t *testing.T) {
	idx, _, queries := sharedAPIIndex(t)
	ctx := context.Background()
	q := queries.Row(0)

	var unavailable pqfastscan.Backend
	found := false
	for _, be := range []pqfastscan.Backend{pqfastscan.BackendAVX2, pqfastscan.BackendNEON} {
		avail := false
		for _, have := range pqfastscan.AvailableBackends() {
			if have == be {
				avail = true
			}
		}
		if !avail {
			unavailable, found = be, true
			break
		}
	}
	if found {
		if _, err := idx.Search(ctx, q, 5, pqfastscan.WithBackend(unavailable)); err == nil ||
			!strings.Contains(err.Error(), "not available") {
			t.Fatalf("unavailable backend: got err %v", err)
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
	parsed, err := pqfastscan.ParseBackend(be.String())
	if err != nil || parsed != be {
		t.Fatalf("ParseBackend(%q) = %v, %v", be.String(), parsed, err)
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
