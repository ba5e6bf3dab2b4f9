package httpx

import (
	"strings"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
)

func twoHosts(t *testing.T, serverP osmodel.Personality) (*plexus.Network, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
		plexus.HostSpec{Name: "client", Personality: osmodel.SPIN},
		plexus.HostSpec{Name: "server", Personality: serverP})
	if err != nil {
		t.Fatal(err)
	}
	return n, client, server
}

func handler(t *sim.Task, req *Request) Response {
	switch req.Path {
	case "/":
		return Response{Status: 200, Body: []byte("hello from plexus\n")}
	case "/big":
		return Response{Status: 200, Body: make([]byte, 20000)}
	default:
		return Response{Status: 404, Body: []byte("not found\n")}
	}
}

func TestHTTPGet(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	srv, err := Serve(server, 80, handler)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var gotErr error
	ok := false
	client.Spawn("get", func(task *sim.Task) {
		err := Get(task, client, server.Addr(), 80, "/", func(t2 *sim.Task, r Result, err error) {
			res, gotErr, ok = r, err, true
		})
		if err != nil {
			t.Errorf("get: %v", err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if !ok {
		t.Fatal("no response")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if res.Status != 200 || string(res.Body) != "hello from plexus\n" {
		t.Fatalf("res = %d %q", res.Status, res.Body)
	}
	if res.Headers["content-type"] != "text/plain" {
		t.Errorf("content-type = %q", res.Headers["content-type"])
	}
	if res.Latency <= 0 {
		t.Error("no latency measured")
	}
	if srv.Stats().Requests != 1 {
		t.Errorf("server requests = %d", srv.Stats().Requests)
	}
}

func TestHTTPNotFound(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	if _, err := Serve(server, 80, handler); err != nil {
		t.Fatal(err)
	}
	var status int
	client.Spawn("get", func(task *sim.Task) {
		_ = Get(task, client, server.Addr(), 80, "/missing", func(t2 *sim.Task, r Result, err error) {
			status = r.Status
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if status != 404 {
		t.Fatalf("status = %d", status)
	}
}

func TestHTTPLargeBodySpansSegments(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	if _, err := Serve(server, 80, handler); err != nil {
		t.Fatal(err)
	}
	var body []byte
	var gotErr error
	client.Spawn("get", func(task *sim.Task) {
		_ = Get(task, client, server.Addr(), 80, "/big", func(t2 *sim.Task, r Result, err error) {
			body, gotErr = r.Body, err
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(body) != 20000 {
		t.Fatalf("body length = %d", len(body))
	}
}

func TestHTTPBadRequest(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	srv, err := Serve(server, 80, handler)
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	client.Spawn("raw", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, server.Addr(), 80, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				_ = conn.Send(t2, []byte("NONSENSE\r\n\r\n"))
			},
			OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
				raw = append(raw, data...)
			},
			OnPeerFin: func(t2 *sim.Task, conn *plexus.TCPApp) { conn.Close(t2) },
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if !strings.HasPrefix(string(raw), "HTTP/1.0 400") {
		t.Fatalf("raw = %q", raw)
	}
	if srv.Stats().BadRequests != 1 {
		t.Errorf("BadRequests = %d", srv.Stats().BadRequests)
	}
}

// The same server code runs as a monolithic user process; the SPIN extension
// answers faster.
func TestHTTPServerPersonalityLatency(t *testing.T) {
	measure := func(p osmodel.Personality) sim.Time {
		n, client, server := twoHosts(t, p)
		if _, err := Serve(server, 80, handler); err != nil {
			t.Fatal(err)
		}
		var lat sim.Time
		client.Spawn("get", func(task *sim.Task) {
			_ = Get(task, client, server.Addr(), 80, "/", func(t2 *sim.Task, r Result, err error) {
				lat = r.Latency
			})
		})
		n.Sim.RunUntil(5 * 60 * sim.Second)
		if lat == 0 {
			t.Fatal("no response")
		}
		return lat
	}
	spin := measure(osmodel.SPIN)
	dux := measure(osmodel.Monolithic)
	t.Logf("HTTP GET latency: SPIN server %v, DUX server %v", spin, dux)
	if dux <= spin {
		t.Errorf("monolithic server (%v) should be slower than SPIN (%v)", dux, spin)
	}
}

// Several clients fetch concurrently; HTTP/1.0 one-connection-per-request
// keeps them independent.
func TestHTTPConcurrentClients(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	if _, err := Serve(server, 80, handler); err != nil {
		t.Fatal(err)
	}
	results := map[string]int{}
	for i := 0; i < 8; i++ {
		path := "/"
		if i%2 == 1 {
			path = "/paper"
		}
		at := sim.Time(i) * 100 * sim.Microsecond // overlapping connections
		p := path
		client.SpawnAt(at, "get", func(task *sim.Task) {
			_ = Get(task, client, server.Addr(), 80, p, func(t2 *sim.Task, r Result, err error) {
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				results[p]++
			})
		})
	}
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if results["/"] != 4 || results["/paper"] != 4 {
		t.Fatalf("results = %v", results)
	}
}

// rawGet sends a request head in parts, each part sim.Millisecond after the
// last so every part is its own segment and delivery, and returns the raw
// response bytes.
func rawGet(t *testing.T, n *plexus.Network, client, server *plexus.Stack, parts ...string) string {
	t.Helper()
	var raw []byte
	client.Spawn("raw", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, server.Addr(), 80, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				for i, p := range parts {
					client.Host.CPU.SubmitAt(t2.Now()+sim.Time(i)*sim.Millisecond, sim.PrioUser, "part", func(t3 *sim.Task) {
						_ = conn.Send(t3, []byte(p))
					})
				}
			},
			OnRecv:    func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) { raw = append(raw, data...) },
			OnPeerFin: func(t2 *sim.Task, conn *plexus.TCPApp) { conn.Close(t2) },
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	return string(raw)
}

// A head split across segments — even inside its terminating blank line —
// is accumulated and served once complete.
func TestHTTPHeadSplitAcrossSegments(t *testing.T) {
	for _, parts := range [][]string{
		{"GET / HTTP/1.0\r\nHo", "st: 10.0.0.2\r\n\r\n"},
		{"GET / HTTP/1.0\r\n\r", "\n"},
		{"GET /missing", " HTTP/1.0\r\n", "\r\n"},
	} {
		n, client, server := twoHosts(t, osmodel.SPIN)
		srv, err := Serve(server, 80, handler)
		if err != nil {
			t.Fatal(err)
		}
		raw := rawGet(t, n, client, server, parts...)
		r, err := parseResponse([]byte(raw))
		want := handler(nil, &Request{Path: strings.Fields(strings.Join(parts, ""))[1]})
		if err != nil || r.Status != want.Status || string(r.Body) != string(want.Body) {
			t.Fatalf("parts %q: response %q (err %v)", parts, raw, err)
		}
		if s := srv.Stats(); s.Requests != 1 || s.BadRequests != 0 {
			t.Fatalf("parts %q: stats %+v", parts, s)
		}
	}
}

// A Monolithic server runs the same code as a user process, on bytes copied
// out of the kernel: whole and split heads are answered, and a malformed
// one draws the 400 with the parser's error text.
func TestHTTPMonolithicServer(t *testing.T) {
	for _, tc := range []struct {
		parts []string
		want  string
	}{
		{[]string{"GET / HTTP/1.0\r\nHost: 10.0.0.2\r\n\r\n"}, "hello from plexus\n"},
		{[]string{"GET / HTTP/1.0\r\n", "Host: 10.0.0.2\r\n\r\n"}, "hello from plexus\n"},
		{[]string{"GET /\r\n\r\n"}, "httpx: malformed request line \"GET /\"\n"},
	} {
		n, client, server := twoHosts(t, osmodel.Monolithic)
		if _, err := Serve(server, 80, handler); err != nil {
			t.Fatal(err)
		}
		raw := rawGet(t, n, client, server, tc.parts...)
		r, err := parseResponse([]byte(raw))
		if err != nil || string(r.Body) != tc.want {
			t.Fatalf("parts %q: response %q (err %v)", tc.parts, raw, err)
		}
	}
}
