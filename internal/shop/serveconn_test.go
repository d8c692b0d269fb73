package shop_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/minihttp"
	"repro/internal/shop"
)

var update = flag.Bool("update", false, "rewrite testdata/serve.golden")

// goldenScript is one connection's requests: every handler, its error
// replies, a repeated query key, an unknown path, and a malformed line,
// which the server answers with 400 and then hangs up.
var goldenScript = []string{
	"GET /healthz",
	"GET /",
	"GET /browse?item=1",
	"GET /browse?item=9",
	"GET /browse?item=x",
	"GET /browse?item=9&item=2",
	"GET /stock?item=0",
	"GET /stock?item=-1",
	"GET /add?session=3&item=0&qty=2",
	"GET /add?session=3&item=1",
	"GET /add?session=3&item=0",
	"GET /add?session=3&item=1&qty=0",
	"GET /add?item=1",
	"GET /add?session=3&item=7",
	"GET /checkout?session=3",
	"GET /checkout?session=3",
	"GET /checkout",
	"GET /add?session=4&item=2&qty=9",
	"GET /checkout?session=4",
	"GET /stock?item=0",
	"GET /browse?item=0",
	"GET /nope?x=1",
	"PUT /healthz?session=1=2",
	"GET nope",
}

// TestServeConnGolden: a scripted session's reply bytes are pinned in
// testdata/serve.golden, byte for byte. `go test ./internal/shop -run
// Golden -update` rewrites the file after an intended change.
func TestServeConnGolden(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 4, Stock: 5})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)
	var script bytes.Buffer
	for _, line := range goldenScript {
		script.WriteString(line + "\n")
	}
	if _, err := client.Write(script.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	const path = "testdata/serve.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reply bytes differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// readReply reads one "<status> <length>\n<body>" reply into buf and
// returns its status, without allocating.
func readReply(t *testing.T, c *minihttp.Conn, buf []byte) int {
	t.Helper()
	have, header := 0, -1
	for {
		n, err := c.Read(buf[have:])
		if err != nil {
			t.Fatal(err)
		}
		have += n
		if header < 0 {
			header = bytes.IndexByte(buf[:have], '\n')
		}
		if header < 0 {
			continue
		}
		status, length, ok := bytes.Cut(buf[:header], []byte(" "))
		if !ok {
			t.Fatalf("malformed reply header %q", buf[:header])
		}
		if have == header+1+atoi(length) {
			return atoi(status)
		}
	}
}

func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

// TestServeConnAllocs pins the heap cost of one request through
// ServeConn. A browse reply is rendered once into a reused buffer, so it
// fits 1 KiB in 12 allocations; the copying reply path took 5 163 B in
// 22. Add and add+checkout keep within that path's 815 B in 20 and
// 2 002 B in 40. The figures count the whole process, the in-memory
// client included.
func TestServeConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)
	defer func() { client.Close(); <-done }()
	buf := make([]byte, 8192)
	// measure returns the bytes and allocations of one pass over reqs.
	measure := func(reqs ...string) (bytesPer, allocsPer float64) {
		lines := make([][]byte, len(reqs))
		for i, r := range reqs {
			lines[i] = []byte(r + "\n")
		}
		run := func(n int) {
			for i := 0; i < n; i++ {
				for _, l := range lines {
					if _, err := client.Write(l); err != nil {
						t.Fatal(err)
					}
					if st := readReply(t, client, buf); st != 200 {
						t.Fatalf("%q: status %d", l, st)
					}
				}
			}
		}
		run(200) // warm the pools and the buffers
		const n = 5000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
	}
	type budget struct {
		bytes, allocs float64
	}
	check := func(name string, got, max budget) {
		t.Logf("%s: %.0f B, %.1f allocs per request", name, got.bytes, got.allocs)
		if got.bytes > max.bytes || got.allocs > max.allocs {
			t.Errorf("%s allocates %.0f B in %.1f allocs per request, budget %.0f B in %.0f",
				name, got.bytes, got.allocs, max.bytes, max.allocs)
		}
	}
	b, a := measure("GET /browse?item=1")
	check("browse", budget{b, a}, budget{1024, 12})
	b, a = measure("GET /add?session=1&item=2")
	check("add", budget{b, a}, budget{815, 20})
	b, a = measure("GET /add?session=2&item=2", "GET /checkout?session=2")
	check("add+checkout", budget{b, a}, budget{2002, 40})
}
