package minihttp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The wire format is a deliberately small HTTP/1.0 subset, sized so that
// requests and responses flow through the transactional connection
// wrapper (txio.Conn) line by line:
//
//	request:  "GET /path?k=v&k2=v2\n"
//	response: "<status> <body-length>\n<body bytes>"

// Request is a parsed request line; Get looks keys up in the raw query.
type Request struct {
	Method   string
	Path     string
	RawQuery string // "k=v&k2=v2", without the '?'
}

// ParseRequest parses a request line (without the trailing newline).
func ParseRequest(line string) (*Request, error) {
	method, rest, ok := strings.Cut(line, " ")
	if !ok || method == "" {
		return nil, fmt.Errorf("minihttp: malformed request line %q", line)
	}
	path, rawQuery, _ := strings.Cut(rest, "?")
	if path == "" || !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("minihttp: malformed path in %q", line)
	}
	for q, more := rawQuery, rawQuery != ""; more; {
		var kv string
		kv, q, more = strings.Cut(q, "&")
		if kv == "" || kv[0] == '=' {
			return nil, fmt.Errorf("minihttp: malformed query in %q", line)
		}
	}
	return &Request{Method: method, Path: path, RawQuery: rawQuery}, nil
}

// Get returns the value of key in the query, "" if it is absent. Of a
// repeated key, the last one wins.
func (r *Request) Get(key string) string {
	var v string
	for q := r.RawQuery; q != ""; {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		if k, val, _ := strings.Cut(kv, "="); k == key {
			v = val
		}
	}
	return v
}

// FormatRequest renders a request line including the newline. Query keys
// are emitted in sorted order so the format is deterministic.
func FormatRequest(method, path string, query map[string]string) string {
	var b strings.Builder
	b.WriteString(method)
	b.WriteByte(' ')
	b.WriteString(path)
	if len(query) > 0 {
		keys := make([]string, 0, len(query))
		for k := range query {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sep := "?"
		for _, k := range keys {
			b.WriteString(sep)
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(query[k])
			sep = "&"
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// FormatResponse renders a full response (header line plus body).
func FormatResponse(status int, body string) string {
	return string(append(AppendResponseHeader(make([]byte, 0, 24+len(body)), status, len(body)), body...))
}

// AppendResponseHeader appends the header line of an n-byte response.
func AppendResponseHeader(dst []byte, status, n int) []byte {
	return append(appendDecimal(append(appendDecimal(dst, status), ' '), n), '\n')
}

// appendDecimal appends n >= 0 in decimal. Not strconv.AppendInt: linking
// it moves every internal/stm function of the Table6AcqRls benchmarks,
// and the placement alone moves their figures by 5 to 15 %.
func appendDecimal(dst []byte, n int) []byte {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			return append(dst, b[i:]...)
		}
	}
}

// ParseResponseHeader parses the response header line (without the
// trailing newline) into status and body length.
func ParseResponseHeader(line string) (status, length int, err error) {
	s, l, ok := strings.Cut(line, " ")
	if !ok {
		return 0, 0, fmt.Errorf("minihttp: malformed response header %q", line)
	}
	if status, err = strconv.Atoi(s); err != nil {
		return 0, 0, fmt.Errorf("minihttp: bad status in %q", line)
	}
	if length, err = strconv.Atoi(l); err != nil || length < 0 {
		return 0, 0, fmt.Errorf("minihttp: bad length in %q", line)
	}
	return status, length, nil
}

// Page is a statically compiled page template: literal segments
// interleaved with variable references, compiled once and rendered with
// pure byte appends (the stand-in for the paper's statically compiled
// JSP pages).
type Page struct {
	segs []string // len(segs) == len(refs)+1
	refs []int    // refs[i] numbers the variable between segs[i] and segs[i+1]
	vars []string // the distinct variable names, numbered in order of first use
}

// CompilePage compiles a template in which "{name}" references a render
// variable. Braces cannot be escaped; the template language is as small
// as the benchmark requires.
func CompilePage(tpl string) (*Page, error) {
	p := &Page{}
	for {
		open := strings.IndexByte(tpl, '{')
		if open < 0 {
			p.segs = append(p.segs, tpl)
			return p, nil
		}
		closing := strings.IndexByte(tpl[open:], '}')
		if closing < 0 {
			return nil, fmt.Errorf("minihttp: unterminated variable in template")
		}
		name := tpl[open+1 : open+closing]
		if name == "" {
			return nil, fmt.Errorf("minihttp: empty variable in template")
		}
		n := slices.Index(p.vars, name)
		if n < 0 {
			n = len(p.vars)
			p.vars = append(p.vars, name)
		}
		p.segs = append(p.segs, tpl[:open])
		p.refs = append(p.refs, n)
		tpl = tpl[open+closing+1:]
	}
}

// MustCompilePage compiles or panics; for package-level page constants.
func MustCompilePage(tpl string) *Page {
	p, err := CompilePage(tpl)
	if err != nil {
		panic(err)
	}
	return p
}

// AppendRender appends the page to dst. vals[i] is the value of the i-th
// name of Vars; a variable without a value renders as the empty string.
func (p *Page) AppendRender(dst []byte, vals ...string) []byte {
	for i, n := range p.refs {
		dst = append(dst, p.segs[i]...)
		if n < len(vals) {
			dst = append(dst, vals[n]...)
		}
	}
	return append(dst, p.segs[len(p.refs)]...)
}

// Render assembles the page from named values; missing variables render
// as empty strings.
func (p *Page) Render(vals map[string]string) string {
	byNum := make([]string, len(p.vars))
	for i, name := range p.vars {
		byNum[i] = vals[name]
	}
	n := 0
	for i, ref := range p.refs {
		n += len(p.segs[i]) + len(byNum[ref])
	}
	return string(p.AppendRender(make([]byte, 0, n+len(p.segs[len(p.refs)])), byNum...))
}

// Vars returns the page's distinct variable names, in AppendRender's order.
func (p *Page) Vars() []string { return append([]string(nil), p.vars...) }
