package pqfastscan_test

import (
	"os/exec"
	"testing"
)

// TestStandingBenchmarkCompiles type-checks benchmark/ against this
// tree. The standing benchmark is a module of its own, so
// `go build ./... && go test ./...` never compiles it; without this
// test a changed signature among the facade and internal packages it
// calls would surface only when the benchmark is next run. Its one
// requirement is `replace pqfastscan => ../`, so vet needs no network.
func TestStandingBenchmarkCompiles(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH; cannot vet benchmark/")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ no longer compiles against this tree (go vet . in benchmark/: %v):\n%s", err, out)
	}
}
