package minihttp

import (
	"io"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPairEcho(t *testing.T) {
	a, b := Pair()
	go func() {
		buf := make([]byte, 5)
		n, _ := b.Read(buf)
		b.Write(buf[:n])
	}()
	a.Write([]byte("hello"))
	buf := make([]byte, 5)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
}

func TestReadBlocksUntilWrite(t *testing.T) {
	a, b := Pair()
	got := make(chan string)
	go func() {
		buf := make([]byte, 8)
		n, _ := a.Read(buf)
		got <- string(buf[:n])
	}()
	select {
	case v := <-got:
		t.Fatalf("read returned %q before any write", v)
	case <-time.After(30 * time.Millisecond):
	}
	b.Write([]byte("late"))
	select {
	case v := <-got:
		if v != "late" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read never unblocked")
	}
}

func TestCloseDrainsThenEOF(t *testing.T) {
	a, b := Pair()
	b.Write([]byte("tail"))
	b.Close()
	buf := make([]byte, 8)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain read: %q, %v", buf[:n], err)
	}
	if _, err = a.Read(buf); err != io.EOF {
		t.Fatalf("post-close read: %v, want EOF", err)
	}
	if _, err = a.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestListenerDialAccept(t *testing.T) {
	l := Listen(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c *Conn) {
				buf := make([]byte, 1)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					c.Write([]byte{buf[0] + 1})
				}
			}(c)
		}
	}()

	for i := 0; i < 3; i++ {
		c, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte{byte(i)})
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err != nil || buf[0] != byte(i)+1 {
			t.Fatalf("conn %d: %d, %v", i, buf[0], err)
		}
		c.Close()
	}
	l.Close()
	if _, err := l.Dial(); err != ErrClosed {
		t.Fatalf("dial after close: %v", err)
	}
	wg.Wait()
	if _, err := l.Accept(); err != ErrClosed {
		t.Fatalf("accept after close: %v", err)
	}
}

func TestParseRequestRoundTrip(t *testing.T) {
	line := FormatRequest("GET", "/shop/item", map[string]string{"id": "7", "session": "abc"})
	if line != "GET /shop/item?id=7&session=abc\n" {
		t.Fatalf("format: %q", line)
	}
	req, err := ParseRequest(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/shop/item" ||
		req.Get("id") != "7" || req.Get("session") != "abc" || req.Get("none") != "" {
		t.Fatalf("parsed %+v", req)
	}
}

func TestRequestGetLastWins(t *testing.T) {
	req, err := ParseRequest("GET /x?a=1&b=&a=2=3&c")
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "2=3", "b": "", "c": "", "d": ""} {
		if got := req.Get(k); got != want {
			t.Errorf("Get(%q) = %q, want %q", k, got, want)
		}
	}
}

func TestParseRequestNoQuery(t *testing.T) {
	req, err := ParseRequest("GET /")
	if err != nil || req.Path != "/" || req.RawQuery != "" {
		t.Fatalf("%+v, %v", req, err)
	}
}

func TestParseRequestErrors(t *testing.T) {
	for _, bad := range []string{"", "GET", "GET nopath", " GET /", "GET /?=v", "GET /?a=1&", "GET /?a&&b"} {
		if _, err := ParseRequest(bad); err == nil {
			t.Errorf("ParseRequest(%q) succeeded", bad)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := FormatResponse(200, "hello world")
	nl := 0
	for i, ch := range resp {
		if ch == '\n' {
			nl = i
			break
		}
	}
	status, length, err := ParseResponseHeader(resp[:nl])
	if err != nil || status != 200 || length != 11 {
		t.Fatalf("header: %d %d %v", status, length, err)
	}
	if body := resp[nl+1:]; body != "hello world" {
		t.Fatalf("body %q", body)
	}
}

func TestParseResponseHeaderErrors(t *testing.T) {
	for _, bad := range []string{"", "200", "abc 3", "200 xx", "200 -1"} {
		if _, _, err := ParseResponseHeader(bad); err == nil {
			t.Errorf("ParseResponseHeader(%q) succeeded", bad)
		}
	}
}

func TestCompilePageRender(t *testing.T) {
	p, err := CompilePage("<h1>Hello {user}</h1><p>Item {id} costs {price}.</p>")
	if err != nil {
		t.Fatal(err)
	}
	got := p.Render(map[string]string{"user": "ann", "id": "3", "price": "7"})
	want := "<h1>Hello ann</h1><p>Item 3 costs 7.</p>"
	if got != want {
		t.Fatalf("render %q", got)
	}
	if vars := p.Vars(); len(vars) != 3 || vars[0] != "user" {
		t.Fatalf("vars %v", vars)
	}
	// Missing variables render empty.
	if got := p.Render(nil); got != "<h1>Hello </h1><p>Item  costs .</p>" {
		t.Fatalf("missing vars: %q", got)
	}
}

// TestAppendRenderByNumber: a variable referenced twice is numbered once,
// values are taken by number, and a missing value renders empty.
func TestAppendRenderByNumber(t *testing.T) {
	p := MustCompilePage("{b}-{a}-{b}-{c}")
	if vars := p.Vars(); !slices.Equal(vars, []string{"b", "a", "c"}) {
		t.Fatalf("vars %v", vars)
	}
	if got := string(p.AppendRender([]byte(">"), "B", "A")); got != ">B-A-B-" {
		t.Fatalf("AppendRender %q", got)
	}
	if got := p.Render(map[string]string{"a": "1", "c": "3"}); got != "-1--3" {
		t.Fatalf("Render %q", got)
	}
}

func TestAppendResponseHeader(t *testing.T) {
	if got := string(AppendResponseHeader([]byte("x"), 409, 12345)); got != "x409 12345\n" {
		t.Fatalf("%q", got)
	}
	if got := FormatResponse(200, ""); got != "200 0\n" {
		t.Fatalf("%q", got)
	}
	if got := FormatResponse(200, "ok\n"); got != "200 3\nok\n" {
		t.Fatalf("%q", got)
	}
}

func TestCompilePageNoVars(t *testing.T) {
	p, err := CompilePage("static only")
	if err != nil || p.Render(nil) != "static only" {
		t.Fatalf("%v", err)
	}
}

func TestCompilePageErrors(t *testing.T) {
	if _, err := CompilePage("oops {unterminated"); err == nil {
		t.Fatal("unterminated variable accepted")
	}
	if _, err := CompilePage("empty {} var"); err == nil {
		t.Fatal("empty variable accepted")
	}
}

func TestMustCompilePagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompilePage did not panic on a bad template")
		}
	}()
	MustCompilePage("{")
}
