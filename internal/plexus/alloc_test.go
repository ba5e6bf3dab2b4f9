package plexus

import (
	"testing"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// TestUDPEchoSteadyStateAllocs pins the zero-alloc property of the per-packet
// path: once warm (ARP primed, pools and free lists populated), a complete
// application-to-application UDP echo round — two sends, two wire crossings,
// two interrupt deliveries, full header processing — allocates nothing.
func TestUDPEchoSteadyStateAllocs(t *testing.T) {
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	rounds := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(tk, server.Addr(), 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })

	runRounds := func(k int) {
		target := rounds + k
		for rounds < target {
			if !n.Sim.Step() {
				t.Fatal("simulation drained before completing echo rounds")
			}
		}
	}
	// Warm up: prime every free list (events, tasks, submissions, mbufs,
	// clusters, wire frames, receive buffers).
	runRounds(64)

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("steady-state UDP echo round allocates %.2f/iter, want 0", avg)
	}
}

// TestUDPEchoSteadyStateAllocsThroughSwitch pins the same property across the
// switched fabric: the per-frame switch path (ingress jobs, MAC lookup, the
// departure ring) must add nothing to the allocation budget.
func TestUDPEchoSteadyStateAllocsThroughSwitch(t *testing.T) {
	top, err := NewTopology(1, nil, []SegmentSpec{
		{Name: "lan", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 0, 0}, Switched: true,
			Hosts: []HostSpec{
				{Name: "client", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
				{Name: "server", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARP()
	client, server := top.Host("client"), top.Host("server")

	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	rounds := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(tk, server.Addr(), 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })

	runRounds := func(k int) {
		target := rounds + k
		for rounds < target {
			if !top.Sim.Step() {
				t.Fatal("simulation drained before completing echo rounds")
			}
		}
	}
	runRounds(64)

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("steady-state switched UDP echo round allocates %.2f/iter, want 0", avg)
	}
}

// bulkSender keeps a TCP send buffer topped up from a periodic kernel task;
// the timer and task are package-level functions so the sender itself
// allocates nothing once running.
type bulkSender struct {
	st    *Stack
	app   *TCPApp
	chunk []byte
}

func bulkSenderTick(a any) {
	s := a.(*bulkSender)
	s.st.Host.CPU.SubmitAtArg(s.st.Host.Sim.Now(), sim.PrioKernel, "bulk-topup", bulkSenderTopUp, s)
}

func bulkSenderTopUp(t *sim.Task, a any) {
	s := a.(*bulkSender)
	for s.app.Conn().SendBufBytes() < 4*len(s.chunk) {
		if s.app.Send(t, s.chunk) != nil {
			return
		}
	}
	s.st.Host.Sim.AfterArg(2*sim.Millisecond, "bulk-topup", bulkSenderTick, s)
}

// TestTCPBulkSteadyStateAllocs pins the zero-alloc property of the TCP bulk
// data path, the TCP twin of TestUDPEchoSteadyStateAllocs: once warm, each
// MSS segment a SPIN sender streams to a SPIN receiver — send-ring append,
// segment build, wire crossing, borrowed in-order delivery, ACKs (immediate
// and delayed) and the retransmission-timer re-arm they drive — allocates
// nothing. The lossy variant drops 1% of frames, so the window also
// covers out-of-order buffering, SACK blocks, selective retransmission and
// the drain of the out-of-order queue. The receiver checks every delivered
// byte against the sender's stream.
func TestTCPBulkSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss float64
	}{{"clean", 0}, {"lossy", 0.01}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := func(name string) HostSpec {
				return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
			}
			n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.loss > 0 {
				fault.Attach(n.Sim, n.Link).Lose(fault.Bernoulli{P: tc.loss})
			}
			chunk := make([]byte, 64<<10)
			for i := range chunk {
				chunk[i] = byte(i % 251)
			}
			var rcvd int
			var srv *tcp.Conn
			_, err = server.ListenTCP(5001, TCPAppOptions{
				OnRecv: func(tk *sim.Task, conn *TCPApp, data []byte) {
					for i, b := range data {
						if b != chunk[(rcvd+i)%len(chunk)] {
							t.Fatalf("stream byte %d = %d, want %d", rcvd+i, b, chunk[(rcvd+i)%len(chunk)])
						}
					}
					rcvd += len(data)
				},
			}, func(tk *sim.Task, conn *TCPApp) { srv = conn.Conn() })
			if err != nil {
				t.Fatal(err)
			}
			s := &bulkSender{st: client, chunk: chunk}
			client.Spawn("connect", func(tk *sim.Task) {
				s.app, err = client.ConnectTCP(tk, server.Addr(), 5001, TCPAppOptions{
					OnEstablished: func(tk *sim.Task, conn *TCPApp) { bulkSenderTopUp(tk, s) },
				})
			})
			mss := client.TCP.MSS()
			runSegs := func(k int) {
				target := rcvd + k*mss
				for rcvd < target {
					if !n.Sim.Step() {
						t.Fatal("simulation drained before the transfer finished")
					}
				}
			}
			// Warm up: grow the send ring, receive and out-of-order
			// buffers, and every pool and free list to their high water.
			runSegs(4000)
			before := srv.Stats()
			avg := testing.AllocsPerRun(2000, func() { runSegs(1) })
			if avg != 0 {
				t.Fatalf("steady-state TCP bulk allocates %.2f per MSS segment, want 0", avg)
			}
			if tc.loss > 0 {
				after, cst := srv.Stats(), s.app.Conn().Stats()
				if after.OOOBuffered == before.OOOBuffered || after.SacksSent == before.SacksSent || cst.SackRexmits == 0 {
					t.Fatalf("lossy window exercised no recovery: OOO %d→%d, SACKs sent %d→%d, SACK rexmits %d",
						before.OOOBuffered, after.OOOBuffered, before.SacksSent, after.SacksSent, cst.SackRexmits)
				}
			}
		})
	}
}
