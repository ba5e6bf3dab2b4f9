package seqpkt_test

import (
	"bytes"
	"fmt"
	"testing"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/seqpkt"
	"plexus/internal/sim"
	"plexus/internal/view"
)

func spin(name string) plexus.HostSpec {
	return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// install puts the application-defined protocol into a host's graph.
func install(t *testing.T, st *plexus.Stack) *seqpkt.Manager {
	t.Helper()
	m, err := seqpkt.Install(seqpkt.Config{
		Sim:              st.Host.Sim,
		IP:               st.IP,
		Disp:             st.Host.Disp,
		Raise:            st.Raiser(),
		CPU:              st.Host.CPU,
		Pool:             st.Host.Pool,
		Costs:            st.Host.Costs,
		RequireEphemeral: st.InterruptMode(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pairWithSPP(t *testing.T) (*plexus.Network, *plexus.Stack, *plexus.Stack, *seqpkt.Manager, *seqpkt.Manager) {
	t.Helper()
	n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), spin("a"), spin("b"))
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b, install(t, a), install(t, b)
}

func TestBasicExchange(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	var got []string
	rx, err := mb.Open(40, func(task *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		got = append(got, string(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		for i := 0; i < 5; i++ {
			if _, err := tx.Send(task, b.Addr(), 40, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	n.Sim.RunUntil(10 * sim.Second)
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("order wrong: %v", got)
		}
	}
	if tx.Pending() != 0 {
		t.Errorf("%d sends still unacknowledged", tx.Pending())
	}
	if tx.Stats().Acked != 5 || rx.Stats().Delivered != 5 {
		t.Errorf("stats: tx=%+v rx=%+v", tx.Stats(), rx.Stats())
	}
}

// Reliability: heavy loss on the wire; every datagram still arrives, exactly
// once, in order.
func TestReliableUnderLoss(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	// Drop 25% of all frames, both directions.
	fault.Attach(n.Sim, n.Link).Lose(&fault.EveryNth{N: 4})
	var got []uint32
	if _, err := mb.Open(40, func(task *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		got = append(got, seq)
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 40
	for i := 0; i < msgs; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		a.SpawnAt(at, "send", func(task *sim.Task) {
			if _, err := tx.Send(task, b.Addr(), 40, make([]byte, 200)); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	n.Sim.RunUntil(2 * 60 * sim.Second)
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d under loss", len(got), msgs)
	}
	for i, s := range got {
		if s != uint32(i+1) {
			t.Fatalf("order violated at %d: %v", i, got[:i+1])
		}
	}
	if tx.Stats().Retransmits == 0 {
		t.Error("no retransmissions despite 25% loss; test is vacuous")
	}
	t.Logf("%d datagrams, %d retransmits, %d dups absorbed",
		msgs, tx.Stats().Retransmits, mb.Stats().Duplicates)
}

// Ordering under reordering: delayed frames arrive late; the receiver
// buffers ahead and still delivers in sequence.
func TestInOrderUnderReordering(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	// Hold back every third data frame; MinSize leaves ACKs alone.
	fault.Attach(n.Sim, n.Link).
		Delay(&fault.PeriodicDelay{N: 3, Hold: 20 * sim.Millisecond, MinSize: 100})
	var got []uint32
	rx, err := mb.Open(40, func(task *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		got = append(got, seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 30
	for i := 0; i < msgs; i++ {
		at := sim.Time(i) * 2 * sim.Millisecond
		a.SpawnAt(at, "send", func(task *sim.Task) {
			_, _ = tx.Send(task, b.Addr(), 40, make([]byte, 300))
		})
	}
	n.Sim.RunUntil(60 * sim.Second)
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	for i, s := range got {
		if s != uint32(i+1) {
			t.Fatalf("order violated: %v", got)
		}
	}
	if rx.Stats().OOOBuffered == 0 {
		t.Error("no out-of-order buffering; reordering injector ineffective")
	}
}

// The new protocol coexists with the built-in transports on the same hosts:
// UDP traffic and SPP traffic interleave without cross-talk.
func TestCoexistsWithUDP(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	var udpGot, sppGot []byte
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 40}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		udpGot = data
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Open(40, func(task *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		sppGot = data
	}); err != nil {
		t.Fatal(err)
	}
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 40, []byte("via-udp"))
		_, _ = tx.Send(task, b.Addr(), 40, []byte("via-spp"))
	})
	n.Sim.RunUntil(5 * sim.Second)
	if !bytes.Equal(udpGot, []byte("via-udp")) || !bytes.Equal(sppGot, []byte("via-spp")) {
		t.Fatalf("cross-talk or loss: udp=%q spp=%q", udpGot, sppGot)
	}
}

// A send to a port nobody bound is retransmitted and finally abandoned.
func TestAbandonAfterMaxRexmits(t *testing.T) {
	n, a, b, ma, _ := pairWithSPP(t)
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_, _ = tx.Send(task, b.Addr(), 4999, []byte("void"))
	})
	n.Sim.RunUntil(sim.Time(seqpkt.MaxRexmits+2) * seqpkt.RexmitTimeout)
	if tx.Stats().Abandoned != 1 {
		t.Fatalf("Abandoned = %d", tx.Stats().Abandoned)
	}
	if tx.Pending() != 0 {
		t.Errorf("pending = %d after abandonment", tx.Pending())
	}
	if tx.Stats().Retransmits != seqpkt.MaxRexmits-1 {
		t.Errorf("Retransmits = %d, want %d", tx.Stats().Retransmits, seqpkt.MaxRexmits-1)
	}
}

func TestPortConflictAndClose(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	_ = n
	_ = a
	ep, err := mb.Open(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Open(40, nil); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	ep.Close()
	ep.Close() // idempotent
	if _, err := mb.Open(40, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	_ = ma
	_ = b
}

func TestOversizePayloadRejected(t *testing.T) {
	n, a, b, ma, _ := pairWithSPP(t)
	_ = n
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		if _, err := tx.Send(task, b.Addr(), 40, make([]byte, ma.MaxPayload()+1)); err != seqpkt.ErrTooBig {
			t.Errorf("err = %v, want ErrTooBig", err)
		}
	})
	n.Sim.Run()
}

// Regression: a head-of-line loss while the sender races far ahead overflows
// the receiver's out-of-order buffer. Frames the full buffer discards must
// NOT be acknowledged — an ACK makes the sender forget the packet, and a
// forgotten packet can never fill its sequence gap, deadlocking the stream
// at the gap forever (the -exp loss sweep first exposed this).
func TestFullOOOBufferDoesNotDeadlock(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	// Kill exactly the third data frame (ACKs are smaller than MinSize); at
	// a 5ms send cadence, far more than maxOOO messages pile up behind the
	// gap before the 500ms retransmit closes it.
	fault.Attach(n.Sim, n.Link).
		Lose(fault.MinSize{N: 300, M: &fault.NthOnly{K: 3}})
	var got []uint32
	rx, err := mb.Open(40, func(task *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		got = append(got, seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 45
	for i := 0; i < msgs; i++ {
		a.SpawnAt(sim.Time(i+1)*5*sim.Millisecond, "send", func(task *sim.Task) {
			_, _ = tx.Send(task, b.Addr(), 40, make([]byte, 300))
		})
	}
	n.Sim.RunUntil(60 * sim.Second)
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d: stream deadlocked behind the gap", len(got), msgs)
	}
	for i, s := range got {
		if s != uint32(i+1) {
			t.Fatalf("order violated at %d: %v", i, got[:i+1])
		}
	}
	if tx.Stats().Abandoned != 0 {
		t.Errorf("%d sends abandoned", tx.Stats().Abandoned)
	}
	if rx.Stats().OOOBuffered == 0 {
		t.Error("out-of-order buffer never filled; test is vacuous")
	}
}

// Corruption on the wire is caught by SPP's own checksum.
func TestChecksumValidation(t *testing.T) {
	n, a, b, ma, mb := pairWithSPP(t)
	delivered := 0
	if _, err := mb.Open(40, func(*sim.Task, uint32, []byte, view.IP4, uint16) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt only the first transmission of the data packet (ACKs are
	// shorter than MinSize).
	fault.Attach(n.Sim, n.Link).Corrupt(&fault.FlipByte{Offset: 50, MinSize: 51, Max: 1})
	a.Spawn("send", func(task *sim.Task) {
		_, _ = tx.Send(task, b.Addr(), 40, make([]byte, 100))
	})
	n.Sim.RunUntil(5 * sim.Second)
	if mb.Stats().BadChecksum != 1 {
		t.Errorf("BadChecksum = %d", mb.Stats().BadChecksum)
	}
	// The retransmission (unmangled) still delivers it.
	if delivered != 1 {
		t.Fatalf("delivered = %d; retransmission did not recover", delivered)
	}
}

// TestEndpointGuardsSteadyStateAllocs pins SPP's receive dispatch at zero
// allocations: every endpoint's guard reads the destination port in place
// rather than copying the packet. The packet is for a port nobody has open,
// so all 64 guards run and no handler does.
func TestEndpointGuardsSteadyStateAllocs(t *testing.T) {
	n, a, b, _, mb := pairWithSPP(t)
	for port := uint16(100); port < 164; port++ {
		if _, err := mb.Open(port, nil); err != nil {
			t.Fatal(err)
		}
	}
	src, dst := a.Addr(), b.Addr()
	raw := []byte{0x45, 0, 0, 32, 0, 0, 0, 0, 64, seqpkt.IPProto, 0, 0,
		src[0], src[1], src[2], src[3], dst[0], dst[1], dst[2], dst[3],
		0, 41, 0, 99, 1, 0, 0, 0, 0, 1, 0, 0}
	pkt := b.Host.Pool.FromBytes(raw, 64)
	defer pkt.Free()
	ran := false
	b.Spawn("raise", func(task *sim.Task) {
		ran = true
		avg := testing.AllocsPerRun(100, func() {
			if got := b.Host.Disp.Raise(task, seqpkt.RecvEvent, pkt); got != 0 {
				t.Fatalf("packet for an unopened port reached %d endpoints", got)
			}
		})
		if avg != 0 {
			t.Errorf("SPP dispatch over 64 endpoints allocates %.2f/packet, want 0", avg)
		}
	})
	n.Sim.Run()
	if !ran {
		t.Fatal("raise task never ran")
	}
}
