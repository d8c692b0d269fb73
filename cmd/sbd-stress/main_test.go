package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A run that checked nothing must not report success: -rounds below one
// is a usage error (exit 2), and one round still passes.
func TestRoundsMustBePositive(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbd-stress")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, arg := range []string{"-rounds=0", "-rounds=-3"} {
		out, err := exec.Command(bin, arg).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err %v, want exit status 2\n%s", arg, err, out)
		}
		if strings.Contains(string(out), "all invariants held") {
			t.Errorf("%s claims success without running a round:\n%s", arg, out)
		}
	}
	out, err := exec.Command(bin, "-rounds=1", "-seed=1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "sbd-stress: 1 rounds in ") {
		t.Errorf("-rounds=1: err %v\n%s", err, out)
	}
}
