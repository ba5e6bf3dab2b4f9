package seqpkt

import (
	"testing"

	"plexus/internal/mbuf"
)

// FuzzPeekDstPortMatchesParsePacket checks the endpoint guards' in-place
// port read against the full parser: on any bytes, split anywhere across
// mbufs, peekDstPort accepts exactly the packets parsePacket accepts and
// reads the same destination port.
func FuzzPeekDstPortMatchesParsePacket(f *testing.F) {
	valid := []byte{0x45, 0, 0, 32, 0, 0, 0, 0, 64, IPProto, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
		0x00, 0x29, 0x00, 0x28, typeData, 0, 0, 0, 0, 1, 0, 0}
	f.Add(valid, uint16(0))
	f.Add(valid, uint16(21))
	f.Add(valid, uint16(23))
	f.Add(valid[:31], uint16(0))          // total length past the packet
	f.Add(valid[:20+hdrLen-1], uint16(0)) // shorter than an SPP header
	pool := mbuf.NewPool()
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		var pkt *mbuf.Mbuf
		if s := int(split); s > 0 && s < len(data) {
			pkt = pool.FromBytes(data[:s], 0)
			if err := pkt.Cat(pool.FromBytes(data[s:], 0)); err != nil {
				t.Fatal(err)
			}
		} else {
			pkt = pool.FromBytes(data, 0)
		}
		defer pkt.Free()
		port, ok := peekDstPort(pkt)
		h, want := parsePacket(pkt)
		if ok != want || (ok && port != h.dstPort) {
			t.Fatalf("peekDstPort = %d, %v; parsePacket = %d, %v", port, ok, h.dstPort, want)
		}
	})
}
