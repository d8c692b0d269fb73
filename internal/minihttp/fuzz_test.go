package minihttp

import (
	"strings"
	"testing"
)

// FuzzParseRequest: the request parser never panics, and a line it
// accepts survives the round trip through FormatRequest: method, path
// and every key's value (the last of a repeated key) come back.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /shop/item?id=7&session=abc", "GET /", "GET /x?a=1&a=2&b=c=d",
		"", "GET", "GET nopath", " GET /", "GET /?=v",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRequest(line)
		if err != nil {
			return
		}
		query := map[string]string{}
		for _, kv := range strings.Split(r.RawQuery, "&") {
			if k, _, _ := strings.Cut(kv, "="); k != "" {
				query[k] = r.Get(k)
			}
		}
		again := strings.TrimSuffix(FormatRequest(r.Method, r.Path, query), "\n")
		back, err := ParseRequest(again)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose formatting %q does not parse: %v", line, r, again, err)
		}
		if back.Method != r.Method || back.Path != r.Path {
			t.Fatalf("%q parsed to %+v, but its formatting %q parses to %+v", line, r, again, back)
		}
		for k, v := range query {
			if got := back.Get(k); got != v {
				t.Fatalf("%q: key %q is %q, but after formatting as %q it is %q", line, k, v, again, got)
			}
		}
	})
}

// FuzzParseResponseHeader: the header parser never panics, and a header
// it accepts re-formats through FormatResponse to the same status and
// length.
func FuzzParseResponseHeader(f *testing.F) {
	for _, seed := range []string{"200 11", "", "200", "abc 3", "200 xx", "200 -1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		status, length, err := ParseResponseHeader(line)
		if err != nil {
			return
		}
		if length > 1<<20 {
			t.Skip("body too large to build")
		}
		header, _, _ := strings.Cut(FormatResponse(status, strings.Repeat("x", length)), "\n")
		s, l, err := ParseResponseHeader(header)
		if err != nil || s != status || l != length {
			t.Fatalf("%q parsed to (%d, %d), but its formatting %q parses to (%d, %d, %v)",
				line, status, length, header, s, l, err)
		}
	})
}
