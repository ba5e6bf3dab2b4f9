package tcp

import (
	"bytes"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/view"
)

// parseSegCopy is the copying parser parseSeg replaced: gather the whole
// segment with CopyData, then view it. It is the reference FuzzParseSeg
// holds the in-place parser to.
func parseSegCopy(pkt *mbuf.Mbuf) (seg, []byte, bool) {
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		return seg{}, nil, false
	}
	hl := ipv.HdrLen()
	raw, err := pkt.CopyData(hl, ipv.TotalLen()-hl)
	if err != nil {
		return seg{}, nil, false
	}
	tv, err := view.TCP(raw)
	if err != nil {
		return seg{}, nil, false
	}
	dataOff := tv.DataOff()
	s := seg{
		src: ipv.Src(), dst: ipv.Dst(), srcPort: tv.SrcPort(), dstPort: tv.DstPort(),
		seq: tv.Seq(), ack: tv.Ack(), flags: tv.Flags(), wnd: uint32(tv.Window()),
		wscale: -1,
	}
	parseOptions(raw[view.TCPMinHdrLen:dataOff], &s)
	return s, raw[dataOff:], true
}

// FuzzParseSeg checks the in-place segment parser on any bytes, split
// anywhere across mbufs: it never panics, accepts exactly what the copying
// parser accepts and reads the same header, keeps the options bounded, and
// locates a payload that lies inside the segment and holds the same bytes —
// also as delivered through Conn.payload, in place or gathered.
func FuzzParseSeg(f *testing.F) {
	pool := mbuf.NewPool()
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		pkt := segChain(pool, data, int(split))
		defer pkt.Free()
		s, ok := parseSeg(pkt)
		ref, refPayload, want := parseSegCopy(pkt)
		if ok != want {
			t.Fatalf("parseSeg accepts=%v, copying parser accepts=%v", ok, want)
		}
		if !ok {
			return
		}
		if s.nsack > maxParsedSackBlocks || s.wscale > maxWndScale {
			t.Fatalf("options out of bounds: %d SACK blocks, wscale %d", s.nsack, s.wscale)
		}
		for _, b := range s.sack[:s.nsack] {
			if !seqLT(b.start, b.end) {
				t.Fatalf("empty or inverted SACK block %+v", b)
			}
		}
		if s.dataOff < view.TCPMinHdrLen || s.dataLen < 0 || s.dataOff+s.dataLen > pkt.PktLen() {
			t.Fatalf("payload [%d,+%d) outside the %d-byte packet", s.dataOff, s.dataLen, pkt.PktLen())
		}
		got, err := pkt.CopyData(s.dataOff, s.dataLen)
		if err != nil || !bytes.Equal(got, refPayload) {
			t.Fatalf("payload %x (err %v), copying parser %x", got, err, refPayload)
		}
		c := &Conn{mgr: &Manager{}, mss: 536}
		if p := c.payload(s, 0); !bytes.Equal(p, refPayload) {
			t.Fatalf("delivered payload %x, want %x", p, refPayload)
		}
		s.pkt, s.dataOff, s.dataLen = nil, 0, 0
		if s != ref {
			t.Fatalf("header %+v, copying parser %+v", s, ref)
		}
	})
}

// buildSegmentCopy is the segment build buildSegment replaced: gather header
// and payload into a fresh slice, checksum it, and copy it into a chain with
// FromBytes. It is the reference FuzzSegmentBuilder holds the fused builder
// to.
func buildSegmentCopy(pool *mbuf.Pool, src, dst view.IP4, h segHeader, opts, payload []byte) *mbuf.Mbuf {
	hdrLen := view.TCPMinHdrLen + len(opts)
	buf := make([]byte, hdrLen+len(payload))
	copy(buf[view.TCPMinHdrLen:], opts)
	copy(buf[hdrLen:], payload)
	buf[12] = uint8(hdrLen/4) << 4
	v, err := view.TCP(buf)
	if err != nil {
		return nil
	}
	v.SetSrcPort(h.srcPort)
	v.SetDstPort(h.dstPort)
	v.SetSeq(h.seq)
	v.SetAck(h.ack)
	v.SetFlags(h.flags)
	v.SetWindow(uint16(min(h.wnd, 65535)))
	a := view.PseudoHeader(src, dst, view.IPProtoTCP, len(buf))
	a.Add(buf)
	v.SetChecksum(a.Fold())
	return pool.FromBytes(buf, segHeadroom)
}

// FuzzSegmentBuilder is a differential target for the fused segment build:
// for any options block, payload (odd lengths included), header fields and
// send-ring wrap point, buildSegment must produce the bytes, checksum and
// chain shape (mbuf count, clusters, per-mbuf lengths) of the gather-and-copy
// path it replaced, and the checksum must verify.
func FuzzSegmentBuilder(f *testing.F) {
	pool := mbuf.NewPool()
	src, dst := view.IP4{10, 0, 0, 1}, view.IP4{10, 0, 0, 2}
	f.Fuzz(func(t *testing.T, opts, payload []byte, head, slack uint16, seq, ack uint32, flags uint8, wnd uint32) {
		opts = opts[:min(len(opts), 40)&^3]
		// Lay the payload into a send ring whose head sits at an arbitrary
		// index, so its span wraps wherever the fuzzer says.
		size := len(payload) + int(slack%64)
		r := sendRing{buf: make([]byte, size)}
		if size > 0 {
			r.head = int(head) % size
		}
		r.write(payload)
		p1, p2 := r.span(0, len(payload))
		if !bytes.Equal(append(append([]byte(nil), p1...), p2...), payload) {
			t.Fatalf("ring span %x+%x, wrote %x", p1, p2, payload)
		}
		h := segHeader{srcPort: 1234, dstPort: 80, seq: seq, ack: ack, flags: flags, wnd: wnd}
		got := buildSegment(pool, src, dst, h, opts, p1, p2)
		want := buildSegmentCopy(pool, src, dst, h, opts, payload)
		defer got.Free()
		defer want.Free()
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got.NumBufs() != want.NumBufs() {
			t.Fatalf("%d mbufs, reference %d", got.NumBufs(), want.NumBufs())
		}
		for g, w := got, want; g != nil; g, w = g.Next(), w.Next() {
			if g.Len() != w.Len() || g.IsCluster() != w.IsCluster() {
				t.Fatalf("mbuf (len %d, cluster %v), reference (len %d, cluster %v)", g.Len(), g.IsCluster(), w.Len(), w.IsCluster())
			}
		}
		gb, _ := got.CopyData(0, got.PktLen())
		wb, _ := want.CopyData(0, want.PktLen())
		if !bytes.Equal(gb, wb) {
			t.Fatalf("segment %x, reference %x", gb, wb)
		}
		a := view.PseudoHeader(src, dst, view.IPProtoTCP, len(gb))
		a.Add(gb)
		if a.Fold() != 0 {
			t.Fatalf("checksum %#02x%02x does not verify", gb[16], gb[17])
		}
	})
}
