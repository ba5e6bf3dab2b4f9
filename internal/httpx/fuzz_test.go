package httpx

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseRequestSplit and parseResponseSplit are the Split-based parsers the
// index-scan ones replaced, kept verbatim as the oracles the fuzz targets
// hold the new parsers to.

func parseRequestSplit(head string) (*Request, error) {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("httpx: empty request")
	}
	parts := strings.Fields(lines[0])
	if len(parts) != 3 {
		return nil, fmt.Errorf("httpx: malformed request line %q", lines[0])
	}
	req := &Request{Method: parts[0], Path: parts[1], Proto: parts[2], Headers: map[string]string{}}
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			return nil, fmt.Errorf("httpx: malformed header %q", l)
		}
		req.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return req, nil
}

func parseResponseSplit(raw []byte) (Result, error) {
	s := string(raw)
	idx := strings.Index(s, "\r\n\r\n")
	if idx < 0 {
		return Result{}, fmt.Errorf("httpx: truncated response")
	}
	head, body := s[:idx], raw[idx+4:]
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return Result{}, fmt.Errorf("httpx: malformed status line %q", lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return Result{}, fmt.Errorf("httpx: bad status %q", parts[1])
	}
	r := Result{Status: code, Headers: map[string]string{}, Body: body}
	for _, l := range lines[1:] {
		if k, v, ok := strings.Cut(l, ":"); ok {
			r.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	if cl, ok := r.Headers["content-length"]; ok {
		want, err := strconv.Atoi(cl)
		if err == nil && want != len(body) {
			return r, fmt.Errorf("httpx: body length %d != Content-Length %d", len(body), want)
		}
	}
	return r, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzParseRequest holds the request parser to the Split-based oracle on
// any bytes: the same fields, the same header map and the same error text.
// It then overwrites the parsed bytes, which must not change the request —
// the handler's strings never alias the borrowed receive bytes.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.0\r\nHost: 10.0.1.1"))
	f.Add([]byte("NONSENSE"))
	f.Fuzz(func(t *testing.T, head []byte) {
		want, werr := parseRequestSplit(string(head))
		head = bytes.Clone(head) // the engine's input must not be modified
		got, gerr := parseRequest(head)
		if errText(gerr) != errText(werr) {
			t.Fatalf("error %q, oracle %q", errText(gerr), errText(werr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parsed %+v, oracle %+v", got, want)
		}
		for i := range head {
			head[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("overwriting the input changed the request to %+v", got)
		}
	})
}

// FuzzParseResponse holds the response parser to the Split-based oracle on
// any bytes: the same status, header map, body and error text.
func FuzzParseResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.0 200 OK\r\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, werr := parseResponseSplit(bytes.Clone(raw))
		got, gerr := parseResponse(raw)
		if errText(gerr) != errText(werr) {
			t.Fatalf("error %q, oracle %q", errText(gerr), errText(werr))
		}
		if got.Status != want.Status || !reflect.DeepEqual(got.Headers, want.Headers) || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("parsed %+v, oracle %+v", got, want)
		}
	})
}
