package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/stm"
)

// server is a spawned cmd/sbd-serve process.
type server struct {
	cmd      *exec.Cmd
	shopAddr string
	obsAddr  string
	spawned  time.Time

	mu     sync.Mutex
	output strings.Builder
	eof    chan struct{} // closed when the server's stdout ends
}

// spawnServer starts bin, cmd/sbd-serve or the benchmark's own span
// server, and waits until it has announced both addresses (the start-up
// lines are sbd-serve's documented interface). Without args it passes
// sbd-serve's flags.
func spawnServer(bin string, args ...string) (*server, error) {
	if args == nil {
		args = []string{"-addr=127.0.0.1:0", "-obs=127.0.0.1:0", "-items=" + strconv.Itoa(shopItems)}
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, eof: make(chan struct{}), spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ready := make(chan struct{})
	go func() {
		defer close(s.eof)
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.output.WriteString(line + "\n")
			if a, ok := strings.CutPrefix(line, "sbd-serve: listening on "); ok {
				s.shopAddr = a
			}
			if a, ok := strings.CutPrefix(line, "sbd-serve: metrics on "); ok {
				s.obsAddr = a
			}
			if !announced && s.shopAddr != "" && s.obsAddr != "" {
				announced = true
				close(ready)
			}
			s.mu.Unlock()
		}
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.eof:
		cmd.Wait() //nolint:errcheck // reported through the captured output
		return nil, fmt.Errorf("server exited before announcing its addresses:\n%s", s.captured())
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server did not announce its addresses within 10s")
	}
}

func (s *server) captured() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.output.String()
}

func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	s.cmd.Wait()         //nolint:errcheck
}

var servedLine = regexp.MustCompile(`served=(\d+) orders=(\d+)`)

// stop SIGTERMs the server, waits for it to exit and returns the served
// and orders counts of its final stats line. An exit that is not a clean
// drain is an error.
func (s *server) stop() (served, orders int64, err error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, 0, fmt.Errorf("signal server: %w", err)
	}
	select {
	case <-s.eof:
	case <-time.After(15 * time.Second):
		s.kill()
		return 0, 0, fmt.Errorf("server did not exit within 15s of SIGTERM")
	}
	werr := s.cmd.Wait()
	out := s.captured()
	if werr != nil {
		return 0, 0, fmt.Errorf("server exited uncleanly: %v\n%s", werr, out)
	}
	if !strings.Contains(out, "drained cleanly") {
		return 0, 0, fmt.Errorf("server exited without 'drained cleanly':\n%s", out)
	}
	m := servedLine.FindStringSubmatch(out)
	if m == nil {
		return 0, 0, fmt.Errorf("server printed no served= line:\n%s", out)
	}
	served, _ = strconv.ParseInt(m[1], 10, 64)
	orders, _ = strconv.ParseInt(m[2], 10, 64)
	return served, orders, nil
}

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time pid has consumed, threads
// that have exited included.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB returns pid's VmHWM, the most resident memory it ever had.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// scrapeStats reads the obs port's /stats JSON, whose keys are the
// exported fields of stm.StatsSnapshot.
func (s *server) scrapeStats() (stm.StatsSnapshot, error) {
	var snap stm.StatsSnapshot
	data, err := httpGet(s.obsAddr, "/stats")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(data, &snap)
}
