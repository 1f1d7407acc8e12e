package pqfastscan_test

import (
	"os/exec"
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
