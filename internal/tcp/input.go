package tcp

import (
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// segArrives is the connection's handler on TCP.PacketRecv: the RFC 793
// segment-arrives processing, simplified to the paths the reproduction
// exercises but honest about ordering, windows, and loss.
func (c *Conn) segArrives(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	if c.dead {
		return
	}
	s, ok := parseSeg(pkt)
	if !ok {
		return
	}
	c.stats.SegsRcvd++

	switch c.state {
	case StateSynSent:
		c.synSentInput(t, s)
		return
	case StateClosed, StateListen:
		return
	case StateTimeWait:
		c.timeWaitInput(t, s)
		return
	}

	// 1. RST validation (RFC 793 p.37, hardened against the blind-reset
	// attacks RFC 5961 describes): a RST aborts the connection only when
	// its sequence number falls inside the receive window. A stale or
	// forged RST is counted and dropped — it must not assassinate a live
	// connection.
	if s.flags&view.TCPRst != 0 {
		if c.rstAcceptable(s) {
			c.teardown(ErrReset, segCause(s))
		} else {
			c.mgr.stats.RSTsRejected++
		}
		return
	}
	// 2. Sequence acceptability (RFC 793 p.69, simplified): the segment
	// must overlap the receive window.
	if !c.seqAcceptable(s) {
		c.sendACK(t)
		return
	}
	// 3. SYN in the window: error, reset.
	if s.flags&view.TCPSyn != 0 && c.state != StateSynRcvd {
		c.Abort(t)
		return
	}
	// Duplicate SYN|ACK retransmission handling in SYN-RCVD: re-ack.
	if c.state == StateSynRcvd && s.flags&view.TCPSyn != 0 {
		c.stats.SegsSent++
		c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.iss, c.rcv.nxt, view.TCPSyn|view.TCPAck, c.rcv.wnd, c.synOpts(true), nil, nil)
		return
	}
	// 4. ACK processing.
	if s.flags&view.TCPAck == 0 {
		return
	}
	passiveOpen := c.state == StateSynRcvd
	if passiveOpen {
		if seqLE(c.snd.una, s.ack) && seqLE(s.ack, c.snd.nxt) {
			c.establish(t, segCause(s))
		} else {
			c.mgr.stats.RSTsSent++
			c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
			return
		}
	}
	c.processAck(t, s)
	if c.dead {
		return
	}
	if passiveOpen {
		// The application hears of the connection only once the ACK has
		// retired our SYN: a Send or Close from the accept callback must
		// find snd.una past it, or output mistakes the SYN's sequence byte
		// for buffered data and the FIN is never sent.
		c.notifyEstablished(t)
		if c.dead {
			return
		}
	}
	// 5. Payload and FIN processing.
	c.processText(t, s)
}

// synSentInput handles segments in SYN-SENT (active open). A RST here is
// honoured only when its ACK acknowledges our SYN (RFC 793 p.37) — a blind
// RST with a stale or missing ACK is counted and dropped.
func (c *Conn) synSentInput(t *sim.Task, s seg) {
	acceptableAck := false
	if s.flags&view.TCPAck != 0 {
		if seqLE(s.ack, c.snd.iss) || seqGT(s.ack, c.snd.nxt) {
			if s.flags&view.TCPRst != 0 {
				c.mgr.stats.RSTsRejected++
			} else {
				c.mgr.stats.RSTsSent++
				c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
			}
			return
		}
		acceptableAck = true
	}
	if s.flags&view.TCPRst != 0 {
		if acceptableAck {
			c.teardown(ErrReset, segCause(s))
		} else {
			c.mgr.stats.RSTsRejected++
		}
		return
	}
	if s.flags&view.TCPSyn == 0 {
		return
	}
	c.rcv.irs = s.seq
	c.rcv.nxt = s.seq + 1
	// SYN windows are unscaled; wl1/wl2 seed the freshness rule.
	c.snd.wnd = s.wnd
	c.snd.wl1 = s.seq
	c.snd.wl2 = s.ack
	c.applySynOptions(s)
	if acceptableAck {
		c.snd.una = s.ack
		c.sampleRTT(s.ack)
		c.establish(t, segCause(s))
		c.notifyEstablished(t)
		c.sendACK(t)
		c.output(t)
	} else {
		// Simultaneous open.
		c.setState(StateSynRcvd, segCause(s))
		c.sendSYNACK(t)
	}
}

// timeWaitInput handles segments in TIME-WAIT. RSTs are ignored (RFC 1337's
// TIME-WAIT assassination hazard: the state may only exit via the 2*MSL
// timer — the conformance checker enforces exactly that); a retransmitted
// FIN restarts the timer and is re-ACKed; any other old segment draws the
// standing ACK.
func (c *Conn) timeWaitInput(t *sim.Task, s seg) {
	if s.flags&view.TCPRst != 0 {
		c.mgr.stats.RSTsRejected++
		return
	}
	if s.flags&view.TCPSyn != 0 {
		return // a new incarnation must wait out the 2*MSL quiet time
	}
	if s.flags&view.TCPFin != 0 && seqLE(s.seq, c.rcv.nxt) {
		// A retransmitted FIN: our ACK of it was lost. Re-ACK and restart
		// the 2*MSL timer (RFC 793 p.73).
		c.mgr.stats.TimeWaitRearms++
		c.rearmTimeWait()
		c.sendACK(t)
		return
	}
	if !c.seqAcceptable(s) {
		c.sendACK(t)
		return
	}
	// In-window duplicate ACKs and old data draw no reply: both ends of a
	// simultaneous close sit in TIME-WAIT, and answering every segment
	// would have the two trade ACKs until the storm breaks the loop.
	c.mgr.stats.TimeWaitQuietDrops++
}

// rstAcceptable validates a RST's sequence number against the receive window
// (RFC 793 p.37): only an in-window RST may abort the connection.
func (c *Conn) rstAcceptable(s seg) bool {
	if c.rcv.wnd == 0 {
		return s.seq == c.rcv.nxt
	}
	return seqLE(c.rcv.nxt, s.seq) && seqLT(s.seq, c.rcv.nxt+c.rcv.wnd)
}

// establish transitions into ESTABLISHED. The caller notifies the
// application once our SYN is acknowledged.
func (c *Conn) establish(t *sim.Task, cause Cause) {
	c.setState(StateEstablished, cause)
	c.disarmRexmit()
	c.synRetries = 0
}

// notifyEstablished runs the listener's accept function (passive opens) and
// the connection's OnEstablished callback.
func (c *Conn) notifyEstablished(t *sim.Task) {
	if c.listener != nil && c.listener.accept != nil {
		c.listener.accept(t, c)
	}
	if c.opts.OnEstablished != nil {
		c.opts.OnEstablished(t, c)
	}
}

// seqAcceptable implements the four-case acceptability test.
func (c *Conn) seqAcceptable(s seg) bool {
	slen := s.segTextLen()
	if c.rcv.wnd == 0 {
		return slen == 0 && s.seq == c.rcv.nxt
	}
	wndEnd := c.rcv.nxt + c.rcv.wnd
	if slen == 0 {
		return seqLE(c.rcv.nxt, s.seq) && seqLT(s.seq, wndEnd) || s.seq == c.rcv.nxt ||
			// Old pure ACKs (e.g. retransmitted SYN|ACK acks) are
			// tolerated: they carry useful ACK fields.
			seqLT(s.seq, c.rcv.nxt)
	}
	segEnd := s.seq + slen - 1
	return (seqLE(c.rcv.nxt, s.seq) && seqLT(s.seq, wndEnd)) ||
		(seqLE(c.rcv.nxt, segEnd) && seqLT(segEnd, wndEnd))
}

// applySynOptions folds the peer's handshake options into the TCB: MSS
// clamping, SACK permission, and window scaling — enabled only when both
// sides offered it (RFC 7323 §2.2).
func (c *Conn) applySynOptions(s seg) {
	if s.mss != 0 && uint32(s.mss) < c.mss {
		c.mss = uint32(s.mss)
	}
	c.peerSackOK = s.sackPerm && !c.opts.NoSack
	if s.wscale >= 0 {
		c.peerWScaleOK = true
		c.sndWndScale = uint8(s.wscale)
	} else {
		c.peerWScaleOK = false
		c.sndWndScale = 0
		c.rcvWndScale = 0
	}
}

// updateSndWnd applies a segment's window field under RFC 793's SND.WL1/WL2
// freshness rule: only a segment newer than the last window update (higher
// seq, or same seq with a no-older ack) may change snd.wnd. Without the
// rule, a reordered stale ACK can shrink — or worse, re-open — the send
// window the peer has since closed.
func (c *Conn) updateSndWnd(s seg) {
	if seqLT(c.snd.wl1, s.seq) || (c.snd.wl1 == s.seq && seqLE(c.snd.wl2, s.ack)) {
		c.snd.wnd = c.segWnd(s)
		c.snd.wl1 = s.seq
		c.snd.wl2 = s.ack
		return
	}
	c.stats.StaleWndUpdates++
}

// processAck advances snd.una, folds in SACK information, runs the recovery
// state machine and congestion control, and drives the close states forward.
func (c *Conn) processAck(t *sim.Task, s seg) {
	ack := s.ack
	// Compare against snd.max, not snd.nxt: after a timeout rewind the peer
	// may legitimately ack sequence space above snd.nxt (data it had buffered
	// out-of-order before the loss).
	if seqGT(ack, c.snd.max) {
		c.sendACK(t) // acks something never sent
		return
	}
	// Fold SACK blocks into the scoreboard first: both the duplicate and
	// new-data paths consult it.
	newSack := false
	if c.peerSackOK && s.nsack > 0 {
		c.stats.SacksRcvd++
		for i := uint8(0); i < s.nsack; i++ {
			b := s.sack[i]
			if seqLE(b.end, c.snd.una) || seqGT(b.end, c.snd.max) {
				continue // stale or absurd block
			}
			if seqLT(b.start, c.snd.una) {
				b.start = c.snd.una
			}
			if c.sb.add(b) {
				newSack = true
			}
		}
	}
	if seqLE(ack, c.snd.una) {
		c.staleAck(t, s, newSack)
		return
	}
	// New data acknowledged.
	acked := ack - c.snd.una
	c.sampleRTT(ack)
	c.backoff = 0 // forward progress: the path is passing traffic again
	// An ACK covering one byte past the remaining buffer can only be our
	// FIN — it was rewound by a timeout but had already reached the peer.
	if c.finQueued && !c.finSent && acked > uint32(c.sndBuf.n) {
		c.finSent = true
	}
	// Slide the send buffer past acknowledged bytes (FIN occupies sequence
	// space beyond the buffer).
	dataAcked := acked
	if c.finSent && seqGT(ack, c.finSeq) {
		dataAcked--
	}
	c.sndBuf.consume(int(dataAcked))
	c.snd.una = ack
	if seqGT(c.snd.una, c.snd.nxt) {
		c.snd.nxt = c.snd.una // ack overtook a rewound snd.nxt
	}
	c.sb.advance(c.snd.una)
	c.updateSndWnd(s)
	if c.snd.wnd > 0 {
		c.disarmPersist()
	}
	// Recovery state machine and congestion control.
	switch c.recovery {
	case RecoveryFast:
		if seqGE(ack, c.snd.recover) {
			c.exitRecovery()
		} else {
			c.partialAck(t, acked)
		}
	case RecoveryLoss:
		if seqGE(ack, c.snd.recover) {
			c.recovery = RecoveryOpen
			c.snd.dupAcks = 0
		}
		c.cc.OnAck(c, acked) // slow-start regrowth continues during loss recovery
	default:
		c.snd.dupAcks = 0
		c.cc.OnAck(c, acked)
	}
	if c.snd.una == c.snd.nxt {
		c.disarmRexmit()
	} else {
		c.armRexmit()
	}
	// Close-state transitions on our FIN being acknowledged.
	finAcked := c.finSent && seqGT(ack, c.finSeq)
	switch c.state {
	case StateFinWait1:
		if finAcked {
			c.setState(StateFinWait2, segCause(s))
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait(segCause(s))
		}
	case StateLastAck:
		if finAcked {
			c.teardown(nil, segCause(s))
			return
		}
	}
	c.output(t)
}

// staleAck handles an acceptable segment whose ACK does not advance snd.una:
// window updates (under the WL1/WL2 rule) and duplicate-ACK counting.
func (c *Conn) staleAck(t *sim.Task, s seg, newSack bool) {
	wndBefore := c.snd.wnd
	// RFC 5681's duplicate-ACK test: no data, no window change, ack ==
	// snd.una with data outstanding. A segment carrying new SACK
	// information counts as a duplicate regardless of its window field
	// (RFC 6675): the SACK proves the receiver took a new segment.
	isDup := s.ack == c.snd.una && c.hasUnackedData() && s.dataLen == 0 &&
		s.flags&(view.TCPSyn|view.TCPFin) == 0 &&
		(newSack || c.segWnd(s) == wndBefore)
	c.updateSndWnd(s)
	if wndBefore == 0 && c.snd.wnd > 0 {
		// Window update: leave persist mode and transmit.
		c.disarmPersist()
		c.output(t)
	}
	if !isDup {
		return
	}
	c.snd.dupAcks++
	c.stats.DupAcksRcvd++
	switch c.recovery {
	case RecoveryOpen:
		// RFC 6582's heuristic: don't re-enter recovery for dup ACKs of
		// sequence space below an earlier recovery point.
		if c.snd.dupAcks >= dupThresh && seqGE(c.snd.una, c.snd.recover) {
			c.enterFastRecovery(t)
		}
	case RecoveryFast:
		// Each further dup ACK means a segment left the network: inflate
		// the window (RFC 6582 step 3) and retransmit the next SACK hole.
		if !c.cc.OwnsCwnd() {
			c.setCwnd(c.snd.cwnd + c.mss)
		}
		c.sackRexmit(t)
		c.output(t)
	case RecoveryLoss:
		c.sackRexmit(t)
	}
}

// enterFastRecovery is RFC 6582 step 2: remember the recovery point,
// collapse ssthresh via the algorithm, retransmit the lost segment, and
// inflate cwnd by the three segments the dup ACKs proved have left the
// network.
func (c *Conn) enterFastRecovery(t *sim.Task) {
	c.stats.FastRexmits++
	c.mgr.stats.FastRexmits++
	c.stats.FastRecoveries++
	c.mgr.stats.FastRecoveries++
	c.recovery = RecoveryFast
	c.snd.recover = c.snd.max
	c.rexmitHint = c.snd.una
	c.snd.ssthresh = c.cc.SsthreshAfterLoss(c)
	c.cc.OnEnterRecovery(c)
	hole := uint32(0)
	if c.sb.n > 0 {
		// Bound the retransmission at the first SACKed range.
		if start, end, ok := c.sb.nextHole(c.snd.una); ok && start == c.snd.una {
			hole = end
		}
	}
	if n := c.retransmitHole(t, c.snd.una, hole); n > 0 {
		c.rexmitHint = c.snd.una + n
	}
	c.rescueSeq = c.snd.max
	if !c.cc.OwnsCwnd() {
		c.setCwnd(c.snd.ssthresh + dupThresh*c.mss)
	}
	c.armRexmit()
	c.output(t) // the inflated window may admit new data (RFC 6582 step 4)
}

// partialAck is RFC 6582 step 5: inside recovery, an ACK that advances
// snd.una without reaching the recovery point proves the next segment is
// also lost. Retransmit it, deflate the inflation by the amount acked (plus
// one MSS for the segment that left the network), and stay in recovery.
func (c *Conn) partialAck(t *sim.Task, acked uint32) {
	c.stats.PartialAcks++
	hole := uint32(0)
	if start, end, ok := c.sb.nextHole(c.snd.una); ok && start == c.snd.una {
		hole = end
	}
	if n := c.retransmitHole(t, c.snd.una, hole); n > 0 {
		c.rexmitHint = c.snd.una + n
	}
	c.rescueSeq = c.snd.max
	if !c.cc.OwnsCwnd() {
		w := c.snd.cwnd
		if acked >= w {
			w = c.mss
		} else {
			w -= acked
		}
		if acked >= c.mss {
			w += c.mss
		}
		c.setCwnd(w)
	}
	c.armRexmit()
	c.output(t)
}

// exitRecovery is RFC 6582 step 5's full-ACK arm: the recovery point is
// cumulatively acked. Deflate to min(ssthresh, flight+MSS) — the
// conservative option that avoids a burst after heavy inflation.
func (c *Conn) exitRecovery() {
	c.recovery = RecoveryOpen
	c.snd.dupAcks = 0
	c.rexmitHint = 0
	if !c.cc.OwnsCwnd() {
		w := c.flightSize() + c.mss
		if c.snd.ssthresh < w {
			w = c.snd.ssthresh
		}
		c.setCwnd(w)
	}
	c.cc.OnExitRecovery(c)
}

func (c *Conn) hasUnackedData() bool {
	return c.snd.nxt != c.snd.una
}

// processText delivers in-order payload, buffers out-of-order segments, and
// handles the peer's FIN.
func (c *Conn) processText(t *sim.Task, s seg) {
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return
	}
	fin := s.flags&view.TCPFin != 0
	if s.dataLen == 0 && !fin {
		return
	}
	if seqGT(s.seq, c.rcv.nxt) {
		// Out of order: buffer and send an immediate duplicate ACK so
		// the sender's fast-retransmit counter advances.
		c.bufferOOO(s)
		c.sendACK(t)
		return
	}
	// Trim any already-received prefix.
	skip := 0
	if seqLT(s.seq, c.rcv.nxt) {
		k := c.rcv.nxt - s.seq
		if k >= uint32(s.dataLen) {
			if !fin || seqGT(s.seq+s.segTextLen(), c.rcv.nxt) {
				// Possibly a bare retransmitted FIN; fall through.
				skip = s.dataLen
			} else {
				c.sendACK(t)
				return
			}
		} else {
			skip = int(k)
		}
	}
	c.deliver(t, c.payload(s, skip))
	if fin {
		c.rcv.nxt++ // the FIN occupies one sequence number
	}
	// Drain any contiguous out-of-order segments. A FIN consumed from the
	// out-of-order buffer gets a synthesized segment cause: the original
	// segment's flags are what drove the transition, not this one's.
	finCause := segCause(s)
	drainFin, drainSeq := c.drainOOO(t)
	if drainFin && !fin {
		finCause = Cause{Kind: CauseSegment, Flags: view.TCPFin | view.TCPAck, Seq: drainSeq, Ack: s.ack}
	}
	if fin || drainFin {
		c.peerFin(t, finCause)
		return
	}
	// ACK strategy: every second full segment immediately, else delayed.
	if uint32(s.dataLen) >= c.mss {
		if c.ackTimer.Pending() {
			c.sendACK(t)
		} else {
			c.scheduleDelayedACK()
		}
	} else {
		c.scheduleDelayedACK()
	}
}

// deliver hands in-order bytes to the application, or queues them (shrinking
// the advertised window) while delivery is paused.
func (c *Conn) deliver(t *sim.Task, payload []byte) {
	if len(payload) == 0 {
		return
	}
	c.rcv.nxt += uint32(len(payload))
	c.stats.BytesRcvd += uint64(len(payload))
	if c.paused {
		c.rcvBuf = append(c.rcvBuf, payload...)
		c.updateRcvWnd()
		return
	}
	if c.opts.OnRecv != nil {
		c.inRecv = true
		c.opts.OnRecv(t, c, payload)
		c.inRecv = false
	}
}

// payload returns the segment's payload from byte skip on, borrowed for
// the duration of delivery: in place when it lies in the head mbuf, else
// gathered into the connection's reused receive buffer.
func (c *Conn) payload(s seg, skip int) []byte {
	off, n := s.dataOff+skip, s.dataLen-skip
	if n <= 0 {
		return nil
	}
	if b := s.pkt.Bytes(); off+n <= len(b) {
		return b[off : off+n]
	}
	if cap(c.rxBuf) < n {
		c.mgr.putBuf(c.rxBuf)
		c.rxBuf = c.mgr.getBuf(n)
	}
	buf := c.rxBuf[:n]
	// parseSeg bounded the payload inside the chain, so the copy cannot
	// fail.
	_ = s.pkt.CopyTo(off, buf)
	return buf
}

// bufferOOO stores an out-of-order segment (bounded; drops beyond the cap),
// copying its payload into a buffer from the manager's free list and
// inserting it in sequence order.
func (c *Conn) bufferOOO(s seg) {
	if len(c.ooo) >= maxOOOSegs {
		c.stats.OOODropped++
		return
	}
	// Arrivals mostly extend the queue, so find the slot from the back.
	i := len(c.ooo)
	for i > 0 && seqGT(c.ooo[i-1].seq, s.seq) {
		i--
	}
	if i > 0 && c.ooo[i-1].seq == s.seq {
		return // duplicate
	}
	c.stats.OOOBuffered++
	c.lastOOOSeq = s.seq
	p := c.mgr.getBuf(s.dataLen)
	_ = s.pkt.CopyTo(s.dataOff, p) // in bounds: see payload
	if c.ooo == nil {
		c.ooo = make([]oooSeg, 0, maxOOOSegs)
	}
	c.ooo = append(c.ooo, oooSeg{})
	copy(c.ooo[i+1:], c.ooo[i:])
	c.ooo[i] = oooSeg{seq: s.seq, payload: p, fin: s.flags&view.TCPFin != 0}
}

// drainOOO delivers buffered segments that have become contiguous; it
// reports whether a buffered FIN was consumed and, if so, that FIN's
// sequence number (for the audit cause).
func (c *Conn) drainOOO(t *sim.Task) (bool, uint32) {
	fin := false
	var finSeq uint32
	i := 0
	for ; i < len(c.ooo); i++ {
		o := c.ooo[i]
		if seqGT(o.seq, c.rcv.nxt) {
			break
		}
		// Clear the slot first: a teardown from inside delivery releases
		// the rest of the queue, but this buffer is returned below.
		c.ooo[i] = oooSeg{}
		payload := o.payload
		if seqLT(o.seq, c.rcv.nxt) {
			skip := c.rcv.nxt - o.seq
			if skip >= uint32(len(payload)) {
				payload = nil
			} else {
				payload = payload[skip:]
			}
		}
		c.deliver(t, payload)
		c.mgr.putBuf(o.payload)
		if o.fin {
			c.rcv.nxt++
			fin = true
			finSeq = o.seq
		}
		if c.dead {
			return fin, finSeq
		}
	}
	n := copy(c.ooo, c.ooo[i:])
	clear(c.ooo[n:])
	c.ooo = c.ooo[:n]
	return fin, finSeq
}

// getBuf returns an n-byte buffer with capacity for at least an MSS, from
// the free list when n fits one. A recycled buffer still holds its previous
// bytes: callers expose only what they write into it.
func (m *Manager) getBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	size := int(m.bufSize)
	if k := len(m.bufFree); k > 0 && n <= size {
		b := m.bufFree[k-1]
		m.bufFree[k-1] = nil
		m.bufFree = m.bufFree[:k-1]
		return b[:n]
	}
	return make([]byte, n, max(n, size))
}

// putBuf returns a buffer to the free list. Only buffers of exactly MSS
// capacity are kept, so a grown send ring or an oversized segment's buffer
// is left to the garbage collector instead of pinning its memory here.
func (m *Manager) putBuf(b []byte) {
	if cap(b) == int(m.bufSize) && cap(b) > 0 {
		m.bufFree = append(m.bufFree, b[:0])
	}
}

// peerFin runs the state transitions for a received FIN and acks it.
func (c *Conn) peerFin(t *sim.Task, cause Cause) {
	if c.opts.OnPeerFin != nil {
		c.opts.OnPeerFin(t, c)
	}
	switch c.state {
	case StateEstablished:
		c.setState(StateCloseWait, cause)
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		c.setState(StateClosing, cause)
	case StateFinWait2:
		c.sendACK(t)
		c.enterTimeWait(cause)
		return
	}
	c.sendACK(t)
}
