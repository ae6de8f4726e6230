package vexdb

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModule vets and tests bench/, the benchmark of record, which
// is its own module and so outside ./... here. Its tests run every
// workload at smoke scale against recorded outputs (model_sha256 and
// results_digest among them). GOWORK=off keeps the module resolving
// the way `go run -C bench .` does.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bench module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench: %v\n%s", args[0], err, out)
		}
	}
}
