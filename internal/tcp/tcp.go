// Package tcp implements the TCP node of the protocol graph: a protocol
// manager that validates segments and demultiplexes them to connections via
// guards — keyed on the 4-tuple, so the dispatcher finds a segment's
// connection by lookup rather than by running every connection's guard —
// and a connection state machine with sliding windows, Jacobson/Karn
// retransmission timing, slow start, congestion avoidance, and fast
// retransmit.
//
// The paper's Plexus TCP came from a commercial vendor (§4.2); this one is
// written from scratch, but the architecture point is preserved: the same
// transport code runs on both OS personalities, demultiplexed by guards in
// the same protocol graph, and multiple implementations of TCP can coexist
// for different port sets (§3.1 "TCP-standard vs TCP-special") because each
// connection's reach is defined entirely by its guard.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"plexus/internal/event"
	"plexus/internal/icmp"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// RecvEvent carries IP datagrams (proto TCP, IP header intact) that passed
// the TCP layer's validation; connection and listener guards demux on it.
const RecvEvent event.Name = "TCP.PacketRecv"

// Errors.
var (
	// ErrPortInUse reports a bind conflict.
	ErrPortInUse = errors.New("tcp: port in use")
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("tcp: connection closed")
	// ErrReset reports a connection terminated by RST.
	ErrReset = errors.New("tcp: connection reset by peer")
)

// Stats counts manager-level activity.
type Stats struct {
	SegsIn      uint64
	SegsOut     uint64
	BadChecksum uint64
	BadHeader   uint64
	NoMatch     uint64 // segments for no connection (RST territory)
	RSTsSent    uint64
	// RSTsRejected counts RSTs dropped by sequence validation (RFC 793
	// p.37): out-of-window in synchronized states, not acknowledging our
	// SYN in SYN-SENT, or arriving in TIME-WAIT (RFC 1337).
	RSTsRejected uint64
	Retransmits  uint64
	FastRexmits  uint64
	// FastRecoveries counts NewReno fast-recovery episodes across all
	// connections; SackRexmits counts scoreboard-driven selective
	// retransmissions.
	FastRecoveries uint64
	SackRexmits    uint64
	DelayedAcks    uint64
	// TimeWaitRearms counts retransmitted FINs arriving in TIME-WAIT that
	// were re-ACKed and restarted the 2·MSL timer (RFC 793 p.73).
	TimeWaitRearms uint64
	// TimeWaitQuietDrops counts in-window segments TIME-WAIT deliberately
	// answered with silence — the quiet period that keeps two TIME-WAIT
	// ends of a simultaneous close from trading ACKs forever.
	TimeWaitQuietDrops uint64
}

// Manager is the TCP protocol manager for one host.
type Manager struct {
	sim   *sim.Sim
	ip    *ip.Layer
	disp  *event.Dispatcher
	raise event.Raiser
	// recvRef is the resolved RecvEvent handle for the per-segment path.
	recvRef *event.Ref
	cpu     *sim.CPU
	pool    *mbuf.Pool
	costs   osmodel.Costs

	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	// connList mirrors conns in creation order: the deterministic,
	// allocation-free iteration the telemetry probe samples through (map
	// order would vary run to run).
	connList []*Conn
	// claimed ports are owned by another implementation of TCP installed
	// in the graph (paper §3.1: TCP-standard's guard processes all TCP
	// packets but those destined for TCP-special); segments to or from
	// them are invisible to this manager.
	claimed  map[uint16]bool
	nextPort uint16
	issSeed  uint32
	stats    Stats
	// defaultCC names the congestion-control algorithm for connections
	// that don't pick one ("" = NewReno).
	defaultCC string
	// minRTO is the retransmission-timeout floor for all connections.
	minRTO sim.Time

	// audit receives every connection state transition; hostName is the
	// precomputed host label stamped into each event (never formatted on
	// the emission path).
	audit    TransitionSink
	hostName string

	// bufFree recycles MSS-sized byte buffers across this manager's
	// connections: out-of-order payload, a small first send-ring storage
	// and the in-order gather buffer (rxBuf). A connection returns its
	// buffers when it enters TIME-WAIT or is torn down.
	bufFree [][]byte

	requireEphemeral bool
	// bufSize is the capacity of the buffers in bufFree: the interface
	// MSS. As an int32 it packs beside requireEphemeral, which keeps
	// Manager in its allocation size class.
	bufSize int32
}

type connKey struct {
	localPort  uint16
	remoteAddr view.IP4
	remotePort uint16
}

// id packs the key into the 64-bit dispatch key of the connection's
// binding on RecvEvent.
func (k connKey) id() uint64 {
	return uint64(k.localPort)<<48 | uint64(binary.BigEndian.Uint32(k.remoteAddr[:]))<<16 | uint64(k.remotePort)
}

// recvKey is RecvEvent's key extractor: an incoming segment's connection key.
func recvKey(pkt *mbuf.Mbuf) (uint64, bool) {
	k, ok := peekKey(pkt)
	return k.id(), ok
}

// Config wires a Manager.
type Config struct {
	Sim   *sim.Sim
	IP    *ip.Layer
	Disp  *event.Dispatcher
	Raise event.Raiser
	CPU   *sim.CPU
	Pool  *mbuf.Pool
	Costs osmodel.Costs
	// RequireEphemeral rejects non-EPHEMERAL connection handlers (§3.3).
	RequireEphemeral bool
	// Audit receives every connection state transition (nil = disabled;
	// SetAuditSink can install one later).
	Audit TransitionSink
	// DefaultCC names the congestion-control algorithm for connections that
	// don't select one via ConnOptions.CC ("" = NewReno).
	DefaultCC string
	// MinRTO overrides the retransmission-timeout floor (0 = the RFC 6298
	// conservative 1s). Modern low-latency stacks use ~200ms.
	MinRTO sim.Time
}

// New creates the manager, declares TCP.PacketRecv, and installs the TCP
// layer's guard/handler on IP.PacketRecv.
func New(cfg Config) (*Manager, error) {
	m := &Manager{
		sim:              cfg.Sim,
		ip:               cfg.IP,
		disp:             cfg.Disp,
		raise:            cfg.Raise,
		cpu:              cfg.CPU,
		pool:             cfg.Pool,
		costs:            cfg.Costs,
		listeners:        make(map[uint16]*Listener),
		conns:            make(map[connKey]*Conn),
		claimed:          make(map[uint16]bool),
		nextPort:         32768,
		issSeed:          uint32(cfg.Sim.Rand().Int63()),
		audit:            cfg.Audit,
		defaultCC:        cfg.DefaultCC,
		minRTO:           cfg.MinRTO,
		requireEphemeral: cfg.RequireEphemeral,
	}
	if m.minRTO == 0 {
		m.minRTO = minRTO
	}
	m.bufSize = int32(m.MSS())
	if cfg.CPU != nil {
		m.hostName = cfg.CPU.Name()
	}
	if err := cfg.Disp.Declare(RecvEvent, event.Options{RequireEphemeral: cfg.RequireEphemeral, Key: recvKey}); err != nil {
		return nil, err
	}
	m.recvRef = cfg.Disp.Ref(RecvEvent)
	guard := func(t *sim.Task, pkt *mbuf.Mbuf) bool {
		if !icmp.ProtoGuard(view.IPProtoTCP)(t, pkt) {
			return false
		}
		if len(m.claimed) == 0 {
			return true
		}
		k, ok := peekKey(pkt)
		return ok && !m.claimed[k.localPort] && !m.claimed[k.remotePort]
	}
	_, err := cfg.Disp.Install(ip.RecvEvent, guard,
		event.Ephemeral("tcp.input", m.input), 0)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats { return m.stats }

// NumConns reports how many TCBs are live (any state before full teardown).
// TIME-WAIT holds its slot — and its port — until the 2*MSL timer frees it.
func (m *Manager) NumConns() int { return len(m.conns) }

// Claim cedes a port to another TCP implementation in the graph: this
// manager's guard stops matching segments to or from it. It fails if the
// port is in local use.
func (m *Manager) Claim(port uint16) error {
	if _, used := m.listeners[port]; used {
		return fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	for k := range m.conns {
		if k.localPort == port {
			return fmt.Errorf("%w: %d", ErrPortInUse, port)
		}
	}
	m.claimed[port] = true
	return nil
}

// Unclaim returns a claimed port to this manager.
func (m *Manager) Unclaim(port uint16) { delete(m.claimed, port) }

// LocalAddr returns the host's IP address.
func (m *Manager) LocalAddr() view.IP4 { return m.ip.Addr() }

// MSS returns the maximum segment size for the interface.
func (m *Manager) MSS() int { return m.ip.MTU() - view.IPv4MinHdrLen - view.TCPMinHdrLen }

// input validates a TCP segment and raises TCP.PacketRecv; segments matching
// no guard draw an RST.
func (m *Manager) input(t *sim.Task, pkt *mbuf.Mbuf) {
	t.ChargeProf(sim.ProfProto, "tcp", m.costs.TCPProc)
	if hdr := pkt.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "tcp", "recv", hdr.Len)
	}
	m.stats.SegsIn++
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		m.stats.BadHeader++
		pkt.Free()
		return
	}
	hl := ipv.HdrLen()
	segLen := ipv.TotalLen() - hl
	if segLen < view.TCPMinHdrLen {
		m.stats.BadHeader++
		pkt.Free()
		return
	}
	t.ChargeBytesProf(sim.ProfChecksum, "tcp", segLen, m.costs.ChecksumPerByte)
	a := view.PseudoHeader(ipv.Src(), ipv.Dst(), view.IPProtoTCP, segLen)
	if err := ip.ChecksumChain(&a, pkt, hl, segLen); err != nil || a.Fold() != 0 {
		m.stats.BadChecksum++
		pkt.Free()
		return
	}
	if m.raise.RaiseRef(t, m.recvRef, pkt) == 0 {
		m.stats.NoMatch++
		m.sendRSTFor(t, pkt)
		pkt.Free()
	}
}

// seg is a parsed incoming segment. Its payload is not copied: it stays in
// the received chain pkt, as dataLen bytes at byte offset dataOff.
type seg struct {
	src     view.IP4
	dst     view.IP4
	srcPort uint16
	dstPort uint16
	seq     uint32
	ack     uint32
	flags   uint8
	wnd     uint32
	pkt     *mbuf.Mbuf
	dataOff int
	dataLen int
	// Parsed options. mss is 0 when absent; wscale is -1 when absent.
	mss      uint16
	wscale   int8
	sackPerm bool
	nsack    uint8
	sack     [maxParsedSackBlocks]sackBlock
}

// parseSeg extracts the segment from an IP datagram packet without copying
// it: the header and options are read in place, or through a stack buffer
// when they straddle mbufs, and the payload is left in the chain.
func parseSeg(pkt *mbuf.Mbuf) (seg, bool) {
	hdr := pkt.Hdr()
	if hdr == nil {
		return seg{}, false
	}
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		return seg{}, false
	}
	hl := ipv.HdrLen()
	segLen := ipv.TotalLen() - hl
	if segLen < view.TCPMinHdrLen || hl+segLen > hdr.Len {
		return seg{}, false
	}
	// The header, options included, is at most maxTCPHdrLen bytes.
	var buf [maxTCPHdrLen]byte
	raw := pkt.Bytes()[hl:]
	if want := min(segLen, len(buf)); len(raw) < want {
		if pkt.CopyTo(hl, buf[:want]) != nil {
			return seg{}, false
		}
		raw = buf[:want]
	}
	tv, err := view.TCP(raw[:min(len(raw), segLen)])
	if err != nil {
		return seg{}, false
	}
	dataOff := tv.DataOff()
	s := seg{
		src:     ipv.Src(),
		dst:     ipv.Dst(),
		srcPort: tv.SrcPort(),
		dstPort: tv.DstPort(),
		seq:     tv.Seq(),
		ack:     tv.Ack(),
		flags:   tv.Flags(),
		wnd:     uint32(tv.Window()),
		pkt:     pkt,
		dataOff: hl + dataOff,
		dataLen: segLen - dataOff,
		wscale:  -1,
	}
	if dataOff > view.TCPMinHdrLen {
		parseOptions(raw[view.TCPMinHdrLen:dataOff], &s)
	}
	return s, true
}

// peekKey reads the key of the connection an incoming segment belongs to —
// its destination port, source address and source port — without copying
// the segment, and accepts exactly the segments parseSeg accepts. A TCP
// header that straddles mbufs is read through a stack buffer.
func peekKey(pkt *mbuf.Mbuf) (connKey, bool) {
	hdr := pkt.Hdr()
	if hdr == nil {
		return connKey{}, false
	}
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		return connKey{}, false
	}
	hl := ipv.HdrLen()
	segLen := ipv.TotalLen() - hl
	if segLen < view.TCPMinHdrLen || hl+segLen > hdr.Len {
		return connKey{}, false
	}
	// Ports and data offset: the first 13 bytes of the TCP header.
	var buf [13]byte
	th := pkt.Bytes()[hl:]
	if len(th) < len(buf) {
		if pkt.CopyTo(hl, buf[:]) != nil {
			return connKey{}, false
		}
		th = buf[:]
	}
	if off := int(th[12]>>4) * 4; off < view.TCPMinHdrLen || off > segLen {
		return connKey{}, false
	}
	return connKey{
		localPort:  binary.BigEndian.Uint16(th[2:]),
		remoteAddr: ipv.Src(),
		remotePort: binary.BigEndian.Uint16(th[0:]),
	}, true
}

// segTextLen returns the sequence-space length of a segment (payload plus
// SYN/FIN flags).
func (s seg) segTextLen() uint32 {
	n := uint32(s.dataLen)
	if s.flags&view.TCPSyn != 0 {
		n++
	}
	if s.flags&view.TCPFin != 0 {
		n++
	}
	return n
}

// sendRSTFor answers a segment that matched nothing (RFC 793 p.36).
func (m *Manager) sendRSTFor(t *sim.Task, pkt *mbuf.Mbuf) {
	s, ok := parseSeg(pkt)
	if !ok || s.flags&view.TCPRst != 0 {
		return
	}
	m.stats.RSTsSent++
	if s.flags&view.TCPAck != 0 {
		m.sendSegment(t, s.dstPort, s.src, s.srcPort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
	} else {
		m.sendSegment(t, s.dstPort, s.src, s.srcPort, 0, s.seq+s.segTextLen(), view.TCPRst|view.TCPAck, 0, nil, nil, nil)
	}
}

// sendSegment builds and transmits one TCP segment. opts is the option
// block (must be 32-bit aligned and at most 40 bytes); the data offset is
// derived from its length. The payload is p1 followed by p2 (the two halves
// of a send-ring span; either may be empty).
func (m *Manager) sendSegment(t *sim.Task, srcPort uint16, dst view.IP4, dstPort uint16, seqNum, ackNum uint32, flags uint8, wnd uint32, opts, p1, p2 []byte) {
	m.stats.SegsOut++
	h := segHeader{srcPort: srcPort, dstPort: dstPort, seq: seqNum, ack: ackNum, flags: flags, wnd: wnd}
	seg := buildSegment(m.pool, m.ip.Addr(), dst, h, opts, p1, p2)
	if seg == nil {
		return
	}
	t.ChargeProf(sim.ProfProto, "tcp", m.costs.TCPProc)
	t.ChargeBytesProf(sim.ProfChecksum, "tcp", seg.Hdr().Len, m.costs.ChecksumPerByte)
	if s := m.sim; s.MetricsEnabled() {
		seg.Hdr().Span = s.NextSpan()
		t.Hop(seg.Hdr().Span, "tcp", "send", seg.Hdr().Len)
	}
	if err := m.ip.Send(t, view.IP4{}, dst, view.IPProtoTCP, seg); err != nil {
		m.sim.Tracef(sim.TraceProto, "tcp: segment send failed: %v", err)
	}
}

// segHeadroom is the leading space an outgoing segment's chain reserves for
// the IP and link headers to be prepended in place.
const segHeadroom = 64

// maxTCPHdrLen is the largest TCP header: a 4-bit data offset in words.
const maxTCPHdrLen = 60

// segHeader holds an outgoing segment's header fields.
type segHeader struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	wnd              uint32 // clamped to the 16-bit field
}

// buildSegment assembles a segment from src to dst in a fresh chain from
// pool: header and options written into the head mbuf, then the payload (p1
// followed by p2) copied straight into pooled storage, the internet checksum
// summed over each copied run while it is still in cache — the BSD
// copy+checksum trick: the payload is read from memory once, with no
// intermediate buffer. (A scalar loop that loads, stores and sums each word
// measured slower than memmove followed by Accum.Add over the cache-hot
// copy.) The chain has exactly the layout pool.FromBytes(segment,
// segHeadroom) gives. It returns nil if opts cannot form a valid header.
func buildSegment(pool *mbuf.Pool, src, dst view.IP4, h segHeader, opts, p1, p2 []byte) *mbuf.Mbuf {
	hdrLen := view.TCPMinHdrLen + len(opts)
	if hdrLen > maxTCPHdrLen {
		return nil
	}
	total := hdrLen + len(p1) + len(p2)
	seg := pool.Alloc(total, segHeadroom)
	// A fresh chain is private and writable, and its head holds at least
	// MLEN-segHeadroom bytes: the whole header.
	out, _ := seg.MutableBytes()
	raw := out[:hdrLen]
	clear(raw[:view.TCPMinHdrLen])
	copy(raw[view.TCPMinHdrLen:], opts)
	raw[12] = uint8(hdrLen/4) << 4
	v, err := view.TCP(raw)
	if err != nil {
		seg.Free()
		return nil
	}
	v.SetSrcPort(h.srcPort)
	v.SetDstPort(h.dstPort)
	v.SetSeq(h.seq)
	v.SetAck(h.ack)
	v.SetFlags(h.flags)
	v.SetWindow(uint16(min(h.wnd, 65535)))
	a := view.PseudoHeader(src, dst, view.IPProtoTCP, total)
	a.Add(raw)
	out, mm := out[hdrLen:], seg
	for _, p := range [2][]byte{p1, p2} {
		for len(p) > 0 {
			for len(out) == 0 {
				mm = mm.Next()
				out, _ = mm.MutableBytes()
			}
			n := copy(out, p)
			a.Add(out[:n])
			out, p = out[n:], p[n:]
		}
	}
	v.SetChecksum(a.Fold())
	return seg
}

// allocPort picks a free local port for an active open.
func (m *Manager) allocPort() (uint16, error) {
	for i := 0; i < 16384; i++ {
		p := m.nextPort
		m.nextPort++
		if m.nextPort == 49152 {
			m.nextPort = 32768
		}
		if _, used := m.listeners[p]; used {
			continue
		}
		inUse := false
		for k := range m.conns {
			if k.localPort == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p, nil
		}
	}
	return 0, errors.New("tcp: out of ports")
}

// iss generates an initial send sequence.
func (m *Manager) iss() uint32 {
	m.issSeed += 64021 // RFC 793's 4µs clock, loosely
	return m.issSeed
}

// Listener accepts incoming connections on a port.
type Listener struct {
	mgr     *Manager
	port    uint16
	binding *event.Binding
	accept  func(t *sim.Task, c *Conn)
	opts    ConnOptions
	closed  bool
}

// Listen binds a passive endpoint: a guard matching SYNs (and continuing
// segments of not-yet-accepted connections) for the port.
func (m *Manager) Listen(port uint16, opts ConnOptions, accept func(t *sim.Task, c *Conn)) (*Listener, error) {
	if _, used := m.listeners[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{mgr: m, port: port, accept: accept, opts: opts}
	guard := func(t *sim.Task, pkt *mbuf.Mbuf) bool {
		k, ok := peekKey(pkt)
		if !ok || k.localPort != port {
			return false
		}
		// Established connections have their own bindings, installed
		// before this one's turn only for new peers: reject segments
		// belonging to an existing connection.
		_, exists := m.conns[k]
		return !exists
	}
	h := event.Handler{Name: fmt.Sprintf("tcp.listen:%d", port), Fn: l.input, Ephemeral: true}
	b, err := m.disp.Install(RecvEvent, guard, h, 0)
	if err != nil {
		return nil, err
	}
	l.binding = b
	m.listeners[port] = l
	return l, nil
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Close stops accepting connections.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.mgr.disp.Uninstall(l.binding)
	delete(l.mgr.listeners, l.port)
}

// input handles a segment for the listening port with no matching connection.
func (l *Listener) input(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	s, ok := parseSeg(pkt)
	if !ok {
		return
	}
	if s.flags&view.TCPRst != 0 {
		return
	}
	if s.flags&view.TCPAck != 0 {
		l.mgr.stats.RSTsSent++
		l.mgr.sendSegment(t, l.port, s.src, s.srcPort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
		return
	}
	if s.flags&view.TCPSyn == 0 {
		return
	}
	// Passive open: the new TCB inherits the listener's LISTEN state, then
	// the SYN drives LISTEN → SYN-RECEIVED — the RFC 793 §3.2 path, taken
	// verbatim so the conformance table can require it.
	c := l.mgr.newConn(l.port, s.src, s.srcPort, l.opts)
	c.listener = l
	c.setState(StateListen, userCause(CauseListen))
	c.rcv.irs = s.seq
	c.rcv.nxt = s.seq + 1
	// A SYN's window is never scaled (RFC 7323 §2.2); wl1/wl2 seed the
	// window-update freshness rule.
	c.snd.wnd = s.wnd
	c.snd.wl1 = s.seq
	c.snd.wl2 = s.ack
	c.applySynOptions(s)
	c.setState(StateSynRcvd, segCause(s))
	c.sendSYNACK(t)
}
