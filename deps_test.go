package pqfastscan_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingBinariesLinkNoLaboratory keeps the split of DESIGN.md §9
// from regressing: pqserve and pqrouter link the engine that serves
// (internal/scan, internal/simd/dispatch) and none of the paper's
// laboratory — the instruction-price model, the software SIMD register
// file, the simulator kernels, the experiment harness. `go list -deps`
// reads only the local tree, so the check runs offline.
func TestServingBinariesLinkNoLaboratory(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH; cannot list dependencies")
	}
	out, err := exec.Command(goBin, "list", "-deps", "./cmd/pqserve", "./cmd/pqrouter").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	linked := func(pkg string) bool {
		for _, d := range deps {
			if d == pkg {
				return true
			}
		}
		return false
	}
	for _, lab := range []string{
		"pqfastscan/internal/perf",
		"pqfastscan/internal/simd",
		"pqfastscan/internal/scan/model",
		"pqfastscan/internal/bench",
	} {
		if linked(lab) {
			t.Errorf("a serving binary links %s", lab)
		}
	}
	for _, engine := range []string{"pqfastscan/internal/scan", "pqfastscan/internal/simd/dispatch"} {
		if !linked(engine) {
			t.Errorf("serving binaries no longer list %s: the check is looking at the wrong packages", engine)
		}
	}
}

// TestServedSearchGoesThroughTheFacade keeps a /search one Search: the
// serving layer has no batch path of its own, and reaches the engine
// through the facade's exported surface only. A source check, because
// both would compile.
func TestServedSearchGoesThroughTheFacade(t *testing.T) {
	for _, dir := range []string{"internal/server", "cmd/pqserve"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v): the check is looking at the wrong place", dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, banned := range []string{"SearchBatch", ".Internal()"} {
				if strings.Contains(string(src), banned) {
					t.Errorf("%s names %s", f, banned)
				}
			}
		}
	}
}
