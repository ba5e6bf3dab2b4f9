package tcp

import (
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/view"
)

// segChain builds a packet holding data, split into two packets' worth of
// mbufs at split (no split when it falls outside the data).
func segChain(pool *mbuf.Pool, data []byte, split int) *mbuf.Mbuf {
	if split <= 0 || split >= len(data) {
		return pool.FromBytes(data, 0)
	}
	head := pool.FromBytes(data[:split], 0)
	if err := head.Cat(pool.FromBytes(data[split:], 0)); err != nil {
		panic(err)
	}
	return head
}

// FuzzPeekKeyMatchesParseSeg checks the connection demux key against the
// full segment parser: on any bytes, split anywhere across mbufs, peekKey
// accepts exactly the segments parseSeg accepts and reads the same
// 4-tuple from them.
func FuzzPeekKeyMatchesParseSeg(f *testing.F) {
	pool := mbuf.NewPool()
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		pkt := segChain(pool, data, int(split))
		defer pkt.Free()
		k, ok := peekKey(pkt)
		s, want := parseSeg(pkt)
		if ok != want {
			t.Fatalf("peekKey accepts=%v, parseSeg accepts=%v", ok, want)
		}
		if ok && k != (connKey{s.dstPort, s.src, s.srcPort}) {
			t.Fatalf("peekKey key %+v, parseSeg 4-tuple %d<-%v:%d", k, s.dstPort, s.src, s.srcPort)
		}
	})
}

func TestPeekKeyReadsFourTuple(t *testing.T) {
	seg := make([]byte, 60)
	seg[0] = 0x45
	seg[3] = 60
	seg[9] = view.IPProtoTCP
	copy(seg[12:16], []byte{10, 0, 0, 7})
	seg[20], seg[21] = 0x12, 0x34 // source port
	seg[22], seg[23] = 0x00, 0x50 // destination port
	seg[32] = 6 << 4              // data offset: one option word
	pool := mbuf.NewPool()
	// The IP header is always contiguous in the head mbuf (the IP layer
	// guarantees it); the TCP header may straddle anywhere.
	for split := view.IPv4MinHdrLen; split < len(seg); split++ {
		pkt := segChain(pool, seg, split)
		k, ok := peekKey(pkt)
		pkt.Free()
		if want := (connKey{80, view.IP4{10, 0, 0, 7}, 0x1234}); !ok || k != want {
			t.Fatalf("split %d: peekKey = %+v, %v; want %+v", split, k, ok, want)
		}
	}
}
