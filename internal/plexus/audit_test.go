// Audit-plane integration tests: the typed TCP state-transition events flow
// from live simulated stacks into sinks, the RFC 793 checker passes on clean
// closes and catches injected illegal transitions with full context, and the
// TIME-WAIT quiet period behaves per the RFC — all through the public
// plexus.Stack surface rather than the tcp package's internals.
package plexus

import (
	"strings"
	"testing"

	"plexus/internal/audit"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

func auditSpec(name string) HostSpec {
	return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// auditRig is a two-host network with an assertion sink and a conformance
// checker watching every TCP transition on both stacks.
type auditRig struct {
	n              *Network
	client, server *Stack
	sink           *audit.AssertSink
	chk            *audit.Checker
}

func newAuditRig(t *testing.T, seed int64) *auditRig {
	t.Helper()
	n, client, server, err := TwoHosts(seed, netdev.EthernetModel(), auditSpec("client"), auditSpec("server"))
	if err != nil {
		t.Fatal(err)
	}
	r := &auditRig{n: n, client: client, server: server, sink: &audit.AssertSink{}}
	r.chk = audit.NewChecker(r.sink)
	client.TCP.SetAuditSink(r.chk)
	server.TCP.SetAuditSink(r.chk)
	return r
}

// TestTCPTimeWaitLifecycle drives one connection through a full close and
// checks the TIME-WAIT quiet period end to end: the TCB is pinned in
// TIME-WAIT for the whole 2·MSL, the timer then fires and frees it on both
// hosts, and the server port is connectable again after expiry.
func TestTCPTimeWaitLifecycle(t *testing.T) {
	r := newAuditRig(t, 1)

	if _, err := r.server.ListenTCP(80, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) {},
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil); err != nil {
		t.Fatal(err)
	}

	var app *TCPApp
	closedAt := sim.Time(-1)
	r.client.Spawn("connect", func(task *sim.Task) {
		var err error
		app, err = r.client.ConnectTCP(task, r.server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) { _ = conn.Send(t2, []byte("ping")) },
			OnClose: func(conn *TCPApp, cerr error) {
				if cerr != nil {
					t.Errorf("close delivered error: %v", cerr)
				}
				closedAt = r.n.Sim.Now()
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	const closeAt = 1 * sim.Second
	r.client.SpawnAt(closeAt, "close", func(task *sim.Task) { app.Close(task) })

	// Halfway through the quiet period the TCB must still be pinned.
	r.n.Sim.RunUntil(closeAt + tcp.MSL)
	if app == nil {
		t.Fatal("connection never established")
	}
	if s := app.State(); s != tcp.StateTimeWait {
		t.Fatalf("mid-quiet-period state = %v, want TIME-WAIT", s)
	}
	if closedAt != -1 {
		t.Fatalf("OnClose fired at %v, before 2*MSL elapsed", closedAt)
	}
	if n := r.client.TCP.NumConns(); n == 0 {
		t.Fatal("client TCB freed during TIME-WAIT")
	}

	// After 2·MSL the timer fires: OnClose delivered, TCB freed on both ends.
	r.n.Sim.RunUntil(closeAt + 3*tcp.MSL)
	if closedAt < closeAt+2*tcp.MSL {
		t.Fatalf("OnClose at %v, want >= close time + 2*MSL (%v)", closedAt, closeAt+2*tcp.MSL)
	}
	if s := app.State(); s != tcp.StateClosed {
		t.Fatalf("state after expiry = %v, want CLOSED", s)
	}
	if n := r.client.TCP.NumConns(); n != 0 {
		t.Fatalf("client still holds %d TCBs after TIME-WAIT expiry", n)
	}
	if n := r.server.TCP.NumConns(); n != 0 {
		t.Fatalf("server still holds %d TCBs after TIME-WAIT expiry", n)
	}

	// The port is reusable: a fresh connect to the same server port after
	// expiry completes a new handshake.
	reconnected := false
	reconnectAt := closeAt + 3*tcp.MSL + sim.Second
	r.client.SpawnAt(reconnectAt, "reconnect", func(task *sim.Task) {
		if _, err := r.client.ConnectTCP(task, r.server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) { reconnected = true },
		}); err != nil {
			t.Errorf("reconnect: %v", err)
		}
	})
	r.n.Sim.RunUntil(reconnectAt + 10*sim.Second)
	if !reconnected {
		t.Fatal("reconnect to port 80 never established after TIME-WAIT expiry")
	}

	if r.chk.Events() == 0 {
		t.Fatal("audit checker saw no transitions")
	}
	if r.chk.ViolationCount() != 0 {
		t.Fatalf("clean close produced %d conformance violations: %+v",
			r.chk.ViolationCount(), r.chk.Violations())
	}
}

// TestTCPSimultaneousClose crosses two FINs: both endpoints call Close at the
// same simulated instant, so each must walk the RFC 793 simultaneous-close
// ladder FIN-WAIT-1 -> CLOSING -> TIME-WAIT -> CLOSED, verified edge by edge
// through the assertion sink.
func TestTCPSimultaneousClose(t *testing.T) {
	r := newAuditRig(t, 2)

	var serverApp *TCPApp
	if _, err := r.server.ListenTCP(80, TCPAppOptions{}, func(task *sim.Task, conn *TCPApp) {
		serverApp = conn
	}); err != nil {
		t.Fatal(err)
	}
	var clientApp *TCPApp
	r.client.Spawn("connect", func(task *sim.Task) {
		var err error
		clientApp, err = r.client.ConnectTCP(task, r.server.Addr(), 80, TCPAppOptions{})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	r.n.Sim.RunUntil(1 * sim.Second)
	if clientApp == nil || serverApp == nil {
		t.Fatal("handshake did not complete")
	}
	if clientApp.State() != tcp.StateEstablished || serverApp.State() != tcp.StateEstablished {
		t.Fatalf("pre-close states %v/%v, want ESTABLISHED/ESTABLISHED",
			clientApp.State(), serverApp.State())
	}

	const closeAt = 2 * sim.Second
	r.client.SpawnAt(closeAt, "close-client", func(task *sim.Task) { clientApp.Close(task) })
	r.server.SpawnAt(closeAt, "close-server", func(task *sim.Task) { serverApp.Close(task) })
	r.n.Sim.RunUntil(closeAt + 3*tcp.MSL)

	port := clientApp.Conn().LocalPort()
	got := r.sink.PathString(r.client.Addr(), port, r.server.Addr(), 80)
	want := "CLOSED>SYN-SENT>ESTABLISHED>FIN-WAIT-1>CLOSING>TIME-WAIT>CLOSED"
	if got != want {
		t.Errorf("client path %s, want %s", got, want)
	}
	got = r.sink.PathString(r.server.Addr(), 80, r.client.Addr(), port)
	want = "CLOSED>LISTEN>SYN-RECEIVED>ESTABLISHED>FIN-WAIT-1>CLOSING>TIME-WAIT>CLOSED"
	if got != want {
		t.Errorf("server path %s, want %s", got, want)
	}
	if r.chk.ViolationCount() != 0 {
		t.Fatalf("simultaneous close produced %d conformance violations: %+v",
			r.chk.ViolationCount(), r.chk.Violations())
	}
	if r.client.TCP.NumConns()+r.server.TCP.NumConns() != 0 {
		t.Fatal("TCBs leaked after simultaneous close unwound")
	}
}

// TestTCPCloseInsideAccept has the server close — with and without first
// writing a reply — from its accept callback, which runs inline in the
// segment that completes the handshake. The reply and the FIN must both
// leave, so both ends close in order and unwind with zero conformance
// violations.
func TestTCPCloseInsideAccept(t *testing.T) {
	for _, reply := range []string{"", "hello"} {
		r := newAuditRig(t, 4)
		if _, err := r.server.ListenTCP(80, TCPAppOptions{}, func(task *sim.Task, conn *TCPApp) {
			if reply != "" {
				if err := conn.Send(task, []byte(reply)); err != nil {
					t.Errorf("send in accept: %v", err)
				}
			}
			conn.Close(task)
		}); err != nil {
			t.Fatal(err)
		}
		var clientApp *TCPApp
		var got []byte
		r.client.Spawn("connect", func(task *sim.Task) {
			var err error
			clientApp, err = r.client.ConnectTCP(task, r.server.Addr(), 80, TCPAppOptions{
				OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { got = append(got, data...) },
				OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
			})
			if err != nil {
				t.Errorf("connect: %v", err)
			}
		})
		r.n.Sim.RunUntil(3 * tcp.MSL)
		if clientApp == nil {
			t.Fatal("connect never ran")
		}
		if string(got) != reply {
			t.Errorf("reply %q: client received %q", reply, got)
		}
		port := clientApp.Conn().LocalPort()
		path := r.sink.PathString(r.server.Addr(), 80, r.client.Addr(), port)
		if want := "CLOSED>LISTEN>SYN-RECEIVED>ESTABLISHED>FIN-WAIT-1>FIN-WAIT-2>TIME-WAIT>CLOSED"; path != want {
			t.Errorf("reply %q: server path %s, want %s", reply, path, want)
		}
		if s := clientApp.State(); s != tcp.StateClosed {
			t.Errorf("reply %q: client state %v, want CLOSED", reply, s)
		}
		if r.chk.ViolationCount() != 0 {
			t.Fatalf("reply %q: %d conformance violations: %+v",
				reply, r.chk.ViolationCount(), r.chk.Violations())
		}
		if n := r.client.TCP.NumConns() + r.server.TCP.NumConns(); n != 0 {
			t.Fatalf("reply %q: %d TCBs left after both ends closed", reply, n)
		}
	}
}

// TestTCPAuditForceStateCaught injects an illegal transition with the
// ForceState test hook mid-connection and checks the conformance checker
// catches it with full event context: host, 4-tuple, timestamp, and the
// forcing cause.
func TestTCPAuditForceStateCaught(t *testing.T) {
	r := newAuditRig(t, 3)

	if _, err := r.server.ListenTCP(80, TCPAppOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	var clientApp *TCPApp
	r.client.Spawn("connect", func(task *sim.Task) {
		var err error
		clientApp, err = r.client.ConnectTCP(task, r.server.Addr(), 80, TCPAppOptions{})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	r.n.Sim.RunUntil(1 * sim.Second)
	if clientApp == nil || clientApp.State() != tcp.StateEstablished {
		t.Fatal("handshake did not complete")
	}

	const forceAt = 2 * sim.Second
	r.client.SpawnAt(forceAt, "force", func(task *sim.Task) {
		clientApp.Conn().ForceState(tcp.StateListen)
	})
	r.n.Sim.RunUntil(3 * sim.Second)

	if n := r.chk.ViolationCount(); n != 1 {
		t.Fatalf("checker caught %d violations, want exactly 1: %+v", n, r.chk.Violations())
	}
	v := r.chk.Violations()[0]
	ev := v.Event
	if ev.Host != "client" {
		t.Errorf("violation host %q, want client", ev.Host)
	}
	if ev.Old != tcp.StateEstablished || ev.New != tcp.StateListen {
		t.Errorf("violation edge %v->%v, want ESTABLISHED->LISTEN", ev.Old, ev.New)
	}
	if ev.LocalAddr != r.client.Addr() || ev.RemoteAddr != r.server.Addr() || ev.RemotePort != 80 {
		t.Errorf("violation 4-tuple %v:%d-%v:%d does not match the forced connection",
			ev.LocalAddr, ev.LocalPort, ev.RemoteAddr, ev.RemotePort)
	}
	if ev.At < forceAt || ev.At > forceAt+sim.Second {
		t.Errorf("violation timestamp %v, want about %v", ev.At, sim.Time(forceAt))
	}
	if ev.Cause.Kind != tcp.CauseUser || ev.Cause.Detail != tcp.CauseForce {
		t.Errorf("violation cause %v %q, want user/force", ev.Cause.Kind, ev.Cause.Detail)
	}
	if !strings.Contains(v.Reason, "no legal edge") {
		t.Errorf("violation reason %q does not name the illegal edge", v.Reason)
	}
}

// TestUDPEchoSteadyStateAllocsWithAudit re-pins the zero-alloc steady-state
// invariant with the audit plane attached: a ring sink behind the RFC 793
// checker on both hosts, primed with a real TCP handshake's transitions, must
// not add a single allocation to the echo hot path.
func TestUDPEchoSteadyStateAllocsWithAudit(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), auditSpec("client"), auditSpec("server"))
	if err != nil {
		t.Fatal(err)
	}
	ring := audit.NewRingSink(0)
	chk := audit.NewChecker(ring)
	client.TCP.SetAuditSink(chk)
	server.TCP.SetAuditSink(chk)

	// A live TCP connection alongside the UDP workload, so the sinks have
	// real transitions recorded while the allocation pin runs.
	if _, err := server.ListenTCP(9, TCPAppOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	client.Spawn("tcp-connect", func(task *sim.Task) {
		if _, err := client.ConnectTCP(task, server.Addr(), 9, TCPAppOptions{}); err != nil {
			t.Errorf("tcp connect: %v", err)
		}
	})

	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(task, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	rounds := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(task, server.Addr(), 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(task *sim.Task) { _ = capp.Send(task, server.Addr(), 7, msg) })

	runRounds := func(k int) {
		target := rounds + k
		for rounds < target {
			if !n.Sim.Step() {
				t.Fatal("simulation drained before completing echo rounds")
			}
		}
	}
	runRounds(64)

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("audit-enabled UDP echo round allocates %.2f/iter, want 0", avg)
	}
	if ring.Recorded() < 5 {
		t.Fatalf("ring sink recorded %d transitions, want the full handshake", ring.Recorded())
	}
	if chk.ViolationCount() != 0 {
		t.Fatalf("handshake produced %d conformance violations: %+v",
			chk.ViolationCount(), chk.Violations())
	}
}
