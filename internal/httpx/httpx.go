// Package httpx implements a minimal HTTP/1.0 server and client over the
// reproduction's own TCP — the protocol the paper's concluding demo serves
// ("A demonstration of the protocol stack as it services HTTP requests").
// On a SPIN host the server is an in-kernel extension; on a monolithic host
// it is an ordinary user process; the same handler code runs either way.
package httpx

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Request is a parsed HTTP request line plus headers.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
}

// Response is what a handler returns.
type Response struct {
	Status int
	Body   []byte
	// ContentType defaults to text/plain.
	ContentType string
}

// HandlerFunc serves one request.
type HandlerFunc func(t *sim.Task, req *Request) Response

// ServerStats counts server activity.
type ServerStats struct {
	Requests    uint64
	BadRequests uint64
	BytesOut    uint64
}

// Server is an HTTP/1.0 server bound to a port on one host.
type Server struct {
	st      *plexus.Stack
	handler HandlerFunc
	stats   ServerStats
	// recv is the OnRecv callback every connection shares, bound once.
	recv func(t *sim.Task, c *plexus.TCPApp, data []byte)
	// out is the reused buffer responses are assembled in; Send copies it
	// into the connection's send ring.
	out []byte
}

// statusText covers the statuses the reproduction emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}

var crlfcrlf = []byte("\r\n\r\n")

// Serve starts an HTTP server on port with the given handler.
func Serve(st *plexus.Stack, port uint16, handler HandlerFunc) (*Server, error) {
	s := &Server{st: st, handler: handler}
	s.recv = s.onRecv
	if _, err := st.ListenTCP(port, plexus.TCPAppOptions{}, s.accept); err != nil {
		return nil, fmt.Errorf("httpx: %w", err)
	}
	return s, nil
}

// accept installs a new connection's callbacks, as a server process does
// after accept(2) returns; on a Monolithic host that wakeup is part of the
// modelled cost.
func (s *Server) accept(t *sim.Task, conn *plexus.TCPApp) {
	opts := conn.Options()
	opts.OnRecv = s.recv
	opts.OnPeerFin = closeOnPeerFin
	conn.SetOptions(opts)
}

func closeOnPeerFin(t *sim.Task, c *plexus.TCPApp) { c.Close(t) }

// partialHead accumulates a request head that spans segments; it hangs off
// the connection as its TCPApp data.
type partialHead struct{ buf []byte }

// onRecv answers a request once its head is complete. A head that arrives
// whole is parsed straight from the borrowed bytes; only a head split across
// deliveries is accumulated. Bytes after the head are ignored, as HTTP/1.0
// GETs carry no body.
func (s *Server) onRecv(t *sim.Task, c *plexus.TCPApp, data []byte) {
	p, _ := c.Data().(*partialHead)
	if p == nil || len(p.buf) == 0 {
		if idx := bytes.Index(data, crlfcrlf); idx >= 0 {
			s.respond(t, c, data[:idx])
			return
		}
		if p == nil {
			p = &partialHead{}
			c.SetData(p)
		}
	}
	p.buf = append(p.buf, data...)
	if idx := bytes.Index(p.buf, crlfcrlf); idx >= 0 {
		head := p.buf[:idx]
		p.buf = nil
		s.respond(t, c, head)
	}
}

// Stats returns a snapshot of counters.
func (s *Server) Stats() ServerStats { return s.stats }

func (s *Server) respond(t *sim.Task, c *plexus.TCPApp, head []byte) {
	req, err := parseRequest(head)
	var resp Response
	if err != nil {
		s.stats.BadRequests++
		resp = Response{Status: 400, Body: []byte(err.Error() + "\n")}
	} else {
		s.stats.Requests++
		resp = s.handler(t, req)
	}
	if resp.ContentType == "" {
		resp.ContentType = "text/plain"
	}
	out := append(s.out[:0], "HTTP/1.0 "...)
	out = strconv.AppendInt(out, int64(resp.Status), 10)
	out = append(out, ' ')
	out = append(out, statusText(resp.Status)...)
	out = append(out, "\r\nContent-Type: "...)
	out = append(out, resp.ContentType...)
	out = append(out, "\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(resp.Body)), 10)
	out = append(out, "\r\n\r\n"...)
	out = append(out, resp.Body...)
	s.out = out
	s.stats.BytesOut += uint64(len(out))
	_ = c.Send(t, out)
	c.Close(t) // HTTP/1.0: one request per connection
}

// parseRequest parses a request head (without its terminating blank line).
// The head is copied into one string that every field is a substring of:
// handlers receive strings and never the borrowed receive bytes.
func parseRequest(head []byte) (*Request, error) {
	line, rest, more := strings.Cut(string(head), "\r\n")
	method, path, proto, ok := requestLine(line)
	if !ok {
		return nil, fmt.Errorf("httpx: malformed request line %q", line)
	}
	req := &Request{Method: method, Path: path, Proto: proto, Headers: map[string]string{}}
	for more {
		var l string
		l, rest, more = strings.Cut(rest, "\r\n")
		if l == "" {
			continue
		}
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			return nil, fmt.Errorf("httpx: malformed header %q", l)
		}
		req.Headers[headerKey(k)] = strings.TrimSpace(v)
	}
	return req, nil
}

// asciiSpace marks the bytes unicode.IsSpace accepts below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// requestLine splits a request line into exactly three fields separated by
// white space, as strings.Fields would, without allocating when the line is
// ASCII.
func requestLine(line string) (method, path, proto string, ok bool) {
	for i := 0; i < len(line); i++ {
		if line[i] >= utf8.RuneSelf {
			f := strings.Fields(line)
			if len(f) != 3 {
				return "", "", "", false
			}
			return f[0], f[1], f[2], true
		}
	}
	var f [3]string
	n := 0
	for i := 0; ; {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i == len(line) {
			break
		}
		j := i
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		if n == len(f) {
			return "", "", "", false
		}
		f[n] = line[i:j]
		n++
		i = j
	}
	return f[0], f[1], f[2], n == len(f)
}

// commonHeaders are the lower-case names of the headers this package sends;
// headerKey returns these shared strings instead of a lower-cased copy.
var commonHeaders = [...]string{"host", "content-type", "content-length"}

// headerKey normalises a header name: trimmed and lower-cased, as
// strings.ToLower(strings.TrimSpace(k)) gives.
func headerKey(k string) string {
	k = strings.TrimSpace(k)
	for _, h := range commonHeaders {
		if asciiLowerEqual(k, h) {
			return h
		}
	}
	return strings.ToLower(k)
}

// asciiLowerEqual reports whether s equals the lower-case ASCII string
// lower after mapping s's ASCII upper-case letters to lower case.
func asciiLowerEqual(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// Result is a fetched response.
type Result struct {
	Status  int
	Headers map[string]string
	Body    []byte
	// Latency is request-sent to response-complete.
	Latency sim.Time
}

// getState is one GET's client side, which its connection's callbacks
// reach through the TCPApp's data.
type getState struct {
	server  view.IP4
	path    string
	started sim.Time
	raw     []byte
	done    func(t *sim.Task, r Result, err error)
}

// Get issues an HTTP/1.0 GET from the client host and delivers the parsed
// result to done when the server closes the connection.
func Get(t *sim.Task, client *plexus.Stack, server view.IP4, port uint16, path string, done func(t *sim.Task, r Result, err error)) error {
	conn, err := client.ConnectTCP(t, server, port, plexus.TCPAppOptions{
		OnEstablished: getEstablished,
		OnRecv:        getRecv,
		OnPeerFin:     getPeerFin,
	})
	if err != nil {
		return err
	}
	conn.SetData(&getState{server: server, path: path, done: done})
	return nil
}

func getEstablished(t *sim.Task, conn *plexus.TCPApp) {
	g := conn.Data().(*getState)
	g.started = t.Now()
	var buf [128]byte
	req := append(buf[:0], "GET "...)
	req = append(req, g.path...)
	req = append(req, " HTTP/1.0\r\nHost: "...)
	req = g.server.AppendTo(req)
	req = append(req, "\r\n\r\n"...)
	_ = conn.Send(t, req)
}

func getRecv(t *sim.Task, conn *plexus.TCPApp, data []byte) {
	g := conn.Data().(*getState)
	g.raw = append(g.raw, data...)
}

func getPeerFin(t *sim.Task, conn *plexus.TCPApp) {
	g := conn.Data().(*getState)
	conn.Close(t)
	r, err := parseResponse(g.raw)
	r.Latency = t.Now() - g.started
	g.done(t, r, err)
	g.raw = nil
}

// parseResponse parses a whole response. The head is copied into one string
// the headers are substrings of; the body aliases raw.
func parseResponse(raw []byte) (Result, error) {
	idx := bytes.Index(raw, crlfcrlf)
	if idx < 0 {
		return Result{}, fmt.Errorf("httpx: truncated response")
	}
	head, body := string(raw[:idx]), raw[idx+4:]
	line, rest, more := strings.Cut(head, "\r\n")
	proto, status, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return Result{}, fmt.Errorf("httpx: malformed status line %q", line)
	}
	status, _, _ = strings.Cut(status, " ")
	code, err := strconv.Atoi(status)
	if err != nil {
		return Result{}, fmt.Errorf("httpx: bad status %q", status)
	}
	r := Result{Status: code, Headers: map[string]string{}, Body: body}
	for more {
		var l string
		l, rest, more = strings.Cut(rest, "\r\n")
		if k, v, ok := strings.Cut(l, ":"); ok {
			r.Headers[headerKey(k)] = strings.TrimSpace(v)
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
