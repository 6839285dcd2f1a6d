package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModule vets and self-tests bench/, the benchmark's own Go
// module. The root module's ./... pattern skips a nested module, so
// without this test a root refactor that breaks the benchmark would
// only show when the benchmark runs. The environment matches
// bench/run.sh: the local toolchain, no proxy, no inherited flags.
func TestBenchModule(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	env := append(os.Environ(), "GOFLAGS=", "GOTOOLCHAIN=local", "GOPROXY=off")
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in bench/: %v\n%s", args, err, out)
		}
	}
}
