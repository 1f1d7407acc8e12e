package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"pqfastscan/internal/scan/model"
)

// microScale keeps the full-registry smoke test fast.
var microScale = Scale{
	Name: "micro", LearnN: 3000, BaseN: 24000, QueryN: 6, Partitions: 4, Seed: 42,
}

var (
	microOnce sync.Once
	microEnv  *Env
	microErr  error
)

func microEnvironment(t *testing.T) *Env {
	t.Helper()
	microOnce.Do(func() {
		microEnv, microErr = NewEnv(microScale)
	})
	if microErr != nil {
		t.Fatal(microErr)
	}
	return microEnv
}

// TestAllExperimentsRun executes every registered experiment at micro
// scale and checks each produces non-empty tabular output.
func TestAllExperimentsRun(t *testing.T) {
	env := microEnvironment(t)
	for _, exp := range Registry {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(env, &buf); err != nil {
				t.Fatalf("%s: %v", exp.Name, err)
			}
			out := buf.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced no output", exp.Name)
			}
			if strings.Count(out, "\n") < 2 {
				t.Fatalf("%s produced fewer than 2 lines:\n%s", exp.Name, out)
			}
		})
	}
}

func TestFindRegistry(t *testing.T) {
	if _, ok := Find("fig16"); !ok {
		t.Error("fig16 not found")
	}
	if _, ok := Find("nonexistent"); ok {
		t.Error("bogus experiment found")
	}
	// Every paper artefact `pqbench -list` prints stays registered, by
	// name: a cleanup may add experiments, never silently drop a figure.
	for _, name := range strings.Fields(
		"table1 table2 fig3 table3 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig11 " +
			"grouping memory bandwidth recall steps") {
		if _, ok := Find(name); !ok {
			t.Errorf("experiment %q is gone from the registry", name)
		}
	}
}

func TestEnvRouting(t *testing.T) {
	env := microEnvironment(t)
	for qi := 0; qi < env.Scale.QueryN; qi++ {
		part, tbl := env.QueryTables(qi)
		if part != env.Index.RoutePartition(env.Queries.Row(qi)) {
			t.Fatalf("query %d: cached route differs", qi)
		}
		if tbl.M != 8 || tbl.KStar != 256 {
			t.Fatalf("query %d: tables %dx%d", qi, tbl.M, tbl.KStar)
		}
	}
}

func TestFastScannerCache(t *testing.T) {
	env := microEnvironment(t)
	opt := PaperFastOpts()
	a, err := env.FastScanner(0, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.FastScanner(0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same options not cached")
	}
	opt2 := opt
	opt2.Keep = 0.09
	c, err := env.FastScanner(0, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different keep shares cache entry")
	}
}

func TestHeadlineFastOptsScaling(t *testing.T) {
	// Paper regime: at 25M vectors the default keep already satisfies
	// the keepN >= 20*topk target.
	if got := HeadlineFastOpts(25_000_000, 100).Keep; got != 0.005 {
		t.Errorf("25M-vector keep = %v, want the paper default 0.005", got)
	}
	// Scaled-down regime: keep grows to preserve the keepN/topk ratio.
	small := HeadlineFastOpts(50_000, 100).Keep
	if small <= 0.005 {
		t.Errorf("50K-vector keep = %v, want > default", small)
	}
	if HeadlineFastOpts(100, 100).Keep > 0.2 {
		t.Error("keep cap exceeded")
	}
}

// TestRunKernelAgreement: the harness paths return identical results for
// all kernels, mirroring the library-level invariant.
func TestRunKernelAgreement(t *testing.T) {
	env := microEnvironment(t)
	ref, err := env.RunKernel(model.KernelNaive, 0, 25, PaperFastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range model.Kernels()[1:] {
		out, err := env.RunKernel(kern, 0, 25, PaperFastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != len(ref.Results) {
			t.Fatalf("kernel %v result count %d != %d", kern, len(out.Results), len(ref.Results))
		}
		for i := range ref.Results {
			if out.Results[i] != ref.Results[i] {
				t.Fatalf("kernel %v result %d differs", kern, i)
			}
		}
	}
}
