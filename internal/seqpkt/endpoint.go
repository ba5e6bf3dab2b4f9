package seqpkt

import (
	"fmt"
	"sort"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// RecvFunc delivers one in-order datagram to the application.
type RecvFunc func(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16)

// pendingSend is an unacknowledged outgoing datagram.
type pendingSend struct {
	dst     view.IP4
	dstPort uint16
	seq     uint32
	payload []byte
	tries   int
	timer   sim.Timer
	// state is written only through Endpoint.setState (audit.go).
	state XferState
}

// peerKey identifies a remote endpoint.
type peerKey struct {
	addr view.IP4
	port uint16
}

// peerState tracks the receive side for one remote endpoint.
type peerState struct {
	nextSeq uint32
	ooo     map[uint32][]byte
}

// EndpointStats counts per-endpoint activity.
type EndpointStats struct {
	Sent        uint64
	Acked       uint64
	Retransmits uint64
	Abandoned   uint64
	Delivered   uint64
	Duplicates  uint64
	OOOBuffered uint64
}

// Endpoint is a bound SPP port: the capability to send and receive.
type Endpoint struct {
	mgr     *Manager
	port    uint16
	recv    RecvFunc
	binding *event.Binding

	nextSend uint32
	pending  map[uint32]*pendingSend
	peers    map[peerKey]*peerState
	stats    EndpointStats
	closed   bool
}

// Open binds port and installs the endpoint's guard/handler pair through the
// manager — applications never touch the dispatcher directly.
func (m *Manager) Open(port uint16, recv RecvFunc) (*Endpoint, error) {
	if _, used := m.ports[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	e := &Endpoint{
		mgr:     m,
		port:    port,
		recv:    recv,
		pending: make(map[uint32]*pendingSend),
		peers:   make(map[peerKey]*peerState),
	}
	guard := func(t *sim.Task, pkt *mbuf.Mbuf) bool {
		dst, ok := peekDstPort(pkt)
		return ok && dst == port
	}
	b, err := m.disp.Install(RecvEvent, guard,
		event.Handler{Name: fmt.Sprintf("seqpkt.endpoint:%d", port), Fn: e.deliver, Ephemeral: true}, 0)
	if err != nil {
		return nil, err
	}
	e.binding = b
	m.ports[port] = e
	return e, nil
}

// Port returns the bound port.
func (e *Endpoint) Port() uint16 { return e.port }

// Stats returns a snapshot of counters.
func (e *Endpoint) Stats() EndpointStats { return e.stats }

// Pending reports unacknowledged sends.
func (e *Endpoint) Pending() int { return len(e.pending) }

// Close releases the port and cancels outstanding retransmissions.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.pending {
		p.timer.Stop()
		e.setState(p, XferCancelled, CauseClose)
	}
	e.mgr.disp.Uninstall(e.binding)
	delete(e.mgr.ports, e.port)
}

// Send transmits one reliable, ordered datagram to dst:dstPort. The source
// fields are the endpoint's identity (anti-spoofing by construction).
func (e *Endpoint) Send(t *sim.Task, dst view.IP4, dstPort uint16, payload []byte) (uint32, error) {
	if len(payload) > e.mgr.MaxPayload() {
		return 0, ErrTooBig
	}
	e.nextSend++
	seq := e.nextSend
	p := &pendingSend{
		dst:     dst,
		dstPort: dstPort,
		seq:     seq,
		payload: append([]byte(nil), payload...),
	}
	e.pending[seq] = p
	e.stats.Sent++
	e.mgr.stats.DataSent++
	e.setState(p, XferSent, CauseSend)
	if err := e.mgr.send(t, e.port, dst, dstPort, typeData, seq, p.payload); err != nil {
		return seq, err
	}
	e.armRexmit(p)
	return seq, nil
}

func (e *Endpoint) armRexmit(p *pendingSend) {
	p.timer = e.mgr.sim.After(RexmitTimeout, "seqpkt-rexmit", func() {
		p.timer = sim.Timer{}
		if e.closed {
			return
		}
		if _, still := e.pending[p.seq]; !still {
			return
		}
		e.mgr.cpu.Submit(sim.PrioKernel, "seqpkt-rexmit", func(task *sim.Task) {
			if e.closed {
				return
			}
			if _, still := e.pending[p.seq]; !still {
				return
			}
			p.tries++
			if p.tries >= MaxRexmits {
				delete(e.pending, p.seq)
				e.stats.Abandoned++
				e.mgr.stats.Abandoned++
				e.setState(p, XferAbandoned, CauseRetryCap)
				return
			}
			e.stats.Retransmits++
			e.mgr.stats.Retransmits++
			e.setState(p, XferSent, CauseRexmit)
			if err := e.mgr.send(task, e.port, p.dst, p.dstPort, typeData, p.seq, p.payload); err != nil {
				e.mgr.sim.Tracef(sim.TraceProto, "seqpkt: rexmit failed: %v", err)
			}
			e.armRexmit(p)
		})
	})
}

// deliver handles one validated SPP packet for this endpoint.
func (e *Endpoint) deliver(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	h, ok := parsePacket(pkt)
	if !ok {
		return
	}
	switch h.typ {
	case typeAck:
		e.mgr.stats.AcksRcvd++
		if p, okp := e.pending[h.seq]; okp {
			p.timer.Stop()
			delete(e.pending, h.seq)
			e.stats.Acked++
			e.setState(p, XferAcked, CauseAck)
		}
	case typeData:
		e.mgr.stats.DataRcvd++
		key := peerKey{addr: h.src, port: h.srcPort}
		ps := e.peers[key]
		if ps == nil {
			ps = &peerState{nextSeq: 1, ooo: make(map[uint32][]byte)}
			e.peers[key] = ps
		}
		// Acknowledge only what is delivered, buffered, or already held: an
		// ACK tells the sender to forget the packet, so acknowledging a
		// packet the full out-of-order buffer just discarded would lose it
		// for good — the sender stops retransmitting, the sequence gap
		// never fills, and the stream deadlocks at the gap.
		ack := true
		switch {
		case h.seq < ps.nextSeq:
			e.stats.Duplicates++
			e.mgr.stats.Duplicates++
		case h.seq == ps.nextSeq:
			e.handoff(t, ps.nextSeq, h.payload, h.src, h.srcPort)
			ps.nextSeq++
			e.drainOOO(t, ps, h.src, h.srcPort)
		default:
			if _, dup := ps.ooo[h.seq]; dup {
				e.stats.Duplicates++
				e.mgr.stats.Duplicates++
			} else if len(ps.ooo) < maxOOO {
				ps.ooo[h.seq] = append([]byte(nil), h.payload...)
				e.stats.OOOBuffered++
			} else {
				ack = false // no room: leave it to a later retransmit
			}
		}
		if ack {
			e.mgr.stats.AcksSent++
			if err := e.mgr.send(t, e.port, h.src, h.srcPort, typeAck, h.seq, nil); err != nil {
				e.mgr.sim.Tracef(sim.TraceProto, "seqpkt: ack failed: %v", err)
			}
		}
	}
}

func (e *Endpoint) handoff(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
	e.stats.Delivered++
	if e.recv != nil {
		e.recv(t, seq, append([]byte(nil), data...), src, srcPort)
	}
}

func (e *Endpoint) drainOOO(t *sim.Task, ps *peerState, src view.IP4, srcPort uint16) {
	for {
		data, ok := ps.ooo[ps.nextSeq]
		if !ok {
			return
		}
		delete(ps.ooo, ps.nextSeq)
		e.handoff(t, ps.nextSeq, data, src, srcPort)
		ps.nextSeq++
	}
}

// BufferedSeqs lists out-of-order sequence numbers held for a peer (tests).
func (e *Endpoint) BufferedSeqs(src view.IP4, srcPort uint16) []uint32 {
	ps := e.peers[peerKey{addr: src, port: srcPort}]
	if ps == nil {
		return nil
	}
	out := make([]uint32, 0, len(ps.ooo))
	for s := range ps.ooo {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
