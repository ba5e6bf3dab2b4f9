package httpx

import (
	"testing"

	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
)

// getLoop drives closed-loop GETs from a client to a server: each response
// schedules the next GET think later. The pause keeps the server's
// TIME-WAIT population (one TCB per GET for 2*MSL) below the client's
// ephemeral port range, so no SYN ever lands on a TIME-WAIT TCB.
type getLoop struct {
	t      *testing.T
	n      *plexus.Network
	client *plexus.Stack
	server *plexus.Stack
	think  sim.Time
	gets   int
	done   func(t *sim.Task, r Result, err error)
}

func issueGet(t *sim.Task, a any) {
	l := a.(*getLoop)
	if err := Get(t, l.client, l.server.Addr(), 80, "/", l.done); err != nil {
		l.t.Errorf("get: %v", err)
	}
}

func (l *getLoop) finish(t *sim.Task, r Result, err error) {
	if err != nil || r.Status != 200 || len(r.Body) != 1024 {
		l.t.Fatalf("GET %d: status %d, %d-byte body, err %v", l.gets, r.Status, len(r.Body), err)
	}
	l.gets++
	l.client.Host.CPU.SubmitAtArg(t.Now()+l.think, sim.PrioUser, "get", issueGet, l)
}

func (l *getLoop) run(k int) {
	target := l.gets + k
	for l.gets < target {
		if !l.n.Sim.Step() {
			l.t.Fatal("simulation drained before the GETs completed")
		}
	}
}

// getAllocBudget is what one warm closed-loop GET between two SPIN hosts
// may allocate on the host. Per connection end (two of each): the TCB, its
// congestion-control state, its segment-handler method value, its keyed
// binding and the binding's name, and the TCPApp. The server: the request
// head string, the Request and its header map (two). The client: the GET
// state, the response buffer, the response head string and the header map
// (two).
const getAllocBudget = 21

// TestHTTPGetSteadyStateAllocs pins the host allocations of one whole SPIN
// connection cycle — connect, request, response, both closes — once the
// server's TIME-WAIT TCBs expire as fast as new ones are made and every free
// list is warm.
func TestHTTPGetSteadyStateAllocs(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	body := make([]byte, 1024)
	if _, err := Serve(server, 80, func(t *sim.Task, req *Request) Response {
		return Response{Status: 200, Body: body}
	}); err != nil {
		t.Fatal(err)
	}
	l := &getLoop{t: t, n: n, client: client, server: server, think: 5 * sim.Millisecond}
	l.done = l.finish
	client.Host.CPU.SubmitAtArg(0, sim.PrioUser, "get", issueGet, l)
	for n.Sim.Now() < 2*tcp.MSL+sim.Second {
		l.run(1)
	}
	avg := testing.AllocsPerRun(200, func() { l.run(1) })
	t.Logf("%.0f allocations per GET", avg)
	if avg > getAllocBudget {
		t.Fatalf("a warm GET allocates %.0f, want at most %d", avg, getAllocBudget)
	}
}
