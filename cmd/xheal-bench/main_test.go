package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"E1", "E6", "E12"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestRunSubset(t *testing.T) {
	code, out, errOut := runCLI(t, "-run", "e3, E9")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "E3 —") || !strings.Contains(out, "E9 —") {
		t.Fatalf("subset output missing tables:\n%s", out)
	}
	if strings.Contains(out, "E1 —") {
		t.Fatal("unselected experiment ran")
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("experiment reported FAIL:\n%s", out)
	}
}

// TestConformanceReplay: the repro path — a saved artifact replays through
// the lockstep checker, and a clean fixture reports ok.
func TestConformanceReplay(t *testing.T) {
	code, out, errOut := runCLI(t,
		"-conf-replay", filepath.Join("..", "..", "internal", "conformance", "testdata", "shrunk-er-n32-s7-churn-delete.json"),
		"-conf-seed", "7", "-conf-kappa", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "conformance: ok") {
		t.Fatalf("missing ok verdict:\n%s", out)
	}
	if code, _, _ := runCLI(t, "-conf-replay", "/does/not/exist.json"); code == 0 {
		t.Fatal("missing artifact should fail")
	}
}

func TestNoSelectionShowsUsage(t *testing.T) {
	code, _, errOut := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "specify -all") {
		t.Fatalf("missing usage hint:\n%s", errOut)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "-bogus"); code != 2 {
		t.Fatal("bad flag should return 2")
	}
}

// The table output must be byte-identical across runs — that is what makes
// `xheal-bench -all > EXPERIMENTS.md` reproducible — so timing lines must go
// to stderr, not stdout, and repeated runs must render identical tables even
// though experiments execute on a worker pool.
func TestStdoutDeterministicAndTimingOnStderr(t *testing.T) {
	code, out1, err1 := runCLI(t, "-run", "E3,E9,E11")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, err1)
	}
	code, out2, _ := runCLI(t, "-run", "E3,E9,E11")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out1 != out2 {
		t.Fatalf("stdout differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	if strings.Contains(out1, "completed in") {
		t.Fatal("timing lines must not pollute deterministic stdout")
	}
	if !strings.Contains(err1, "completed in") {
		t.Fatalf("timing lines missing from stderr:\n%s", err1)
	}
	// Tables render in experiment order regardless of completion order.
	if strings.Index(out1, "E3 —") > strings.Index(out1, "E9 —") {
		t.Fatal("tables rendered out of experiment order")
	}
}

// TestAllMatchesExperimentsMD is the drift guard on the checked-in tables:
// `-all` must print EXPERIMENTS.md byte for byte from its first table on.
func TestAllMatchesExperimentsMD(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(want, []byte("E1 —"))
	if i < 0 {
		t.Fatal("EXPERIMENTS.md has no E1 table")
	}
	code, out, errOut := runCLI(t, "-all")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if out != string(want[i:]) {
		t.Fatal("xheal-bench -all no longer reproduces EXPERIMENTS.md; regenerate it (see its header)")
	}
}
