package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// A client may SIGTERM the server the moment it has read an announcement
// line (benchmark/server.go parses them). The server must already be
// handling the signal by then: drain, print the final lines, exit 0 —
// not die to the default handler with a connection table it never
// closed.
func TestEarlySIGTERMDrains(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbd-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Signalling after the first line is the widest window: the obs
	// listener is still being set up. Repeated, because losing the race
	// takes the signal landing inside it.
	for i := 0; i < 25; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(stdout)
		first, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(first, "sbd-serve: listening on ") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("run %d: first line %q, err %v", i, first, err)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var rest bytes.Buffer
		rest.ReadFrom(r) // to EOF: the process closed stdout, i.e. exited
		if err := cmd.Wait(); err != nil {
			t.Fatalf("run %d: exit: %v (SIGTERM right after %q)\nstdout: %s\nstderr: %s",
				i, err, strings.TrimSpace(first), rest.String(), stderr.String())
		}
		out := rest.String()
		if !strings.Contains(out, "sbd-serve: served=0 orders=0 ") ||
			!strings.Contains(out, "sbd-serve: drained cleanly") {
			t.Fatalf("run %d: exited 0 without the final lines:\n%s", i, out)
		}
	}
}
