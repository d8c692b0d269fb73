package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A flag set that selects nothing to measure is a usage error (exit 2),
// not a panic and not a silent exit 0; a one-cell run still works.
func TestEmptySelectionIsUsageError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbd-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-figure7", "-threads=x"},
		{"-threads=0,-2"},
		{"-bench=nosuch"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "Usage of") || strings.Contains(string(out), "panic") {
			t.Errorf("%v: want a usage message, got:\n%s", args, out)
		}
	}
	out, err := exec.Command(bin, "-bench=h2", "-threads=1", "-scale=1",
		"-window=2", "-maxiters=2", "-topsites=0").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Table 9 — h2") {
		t.Errorf("one-cell run: err %v\n%s", err, out)
	}
}
