package fabric

import (
	"plexus/internal/filter"
	"plexus/internal/view"
)

// Header-rewrite plumbing shared by the NAT and load-balancer actions: all
// rewrites go through RewriteAddrPort, which keeps the IP header checksum
// and the transport checksum (which covers the pseudo-header, so address
// changes break it too) correct via RFC 1624 incremental updates.

// ipOffset returns the IP header offset for the packet's framing.
func ipOffset(base filter.Base) int {
	if base == filter.BaseEthernet {
		return view.EthernetHdrLen
	}
	return 0
}

func get16(b []byte, i int) uint16 { return uint16(b[i])<<8 | uint16(b[i+1]) }
func put16(b []byte, i int, v uint16) {
	b[i] = byte(v >> 8)
	b[i+1] = byte(v)
}

// csumUpdate incrementally updates a one's-complement checksum field for a
// 16-bit word changing from old to new (RFC 1624: HC' = ~(~HC + ~m + m')).
func csumUpdate(cs, old, new uint16) uint16 {
	x := uint32(^cs) + uint32(^old) + uint32(new)
	for x>>16 != 0 {
		x = x&0xffff + x>>16
	}
	return ^uint16(x)
}

// RewriteAddrPort rewrites the packet's source (src=true) or destination
// (src=false) IP address — and, when setPort is true, the corresponding
// transport port — in place, fixing the IP header checksum and the UDP/TCP
// checksum incrementally. It returns false (leaving the packet unchanged)
// when the packet is not a rewritable IPv4 datagram. Panics on read-only
// packets, surfacing the misdeployment as a sandbox fault.
func RewriteAddrPort(p *Packet, src bool, addr view.IP4, port uint16, setPort bool) bool {
	b := p.Mutable()
	off := ipOffset(p.Base)
	if len(b) < off+view.IPv4MinHdrLen {
		return false
	}
	ipv, err := view.IPv4(b[off:])
	if err != nil {
		return false
	}
	// Locate the transport checksum (first fragment only; a zero UDP
	// checksum means "not computed" and needs no fixing).
	csOff := -1
	tOff := off + ipv.HdrLen()
	portable := ipv.FragOffset() == 0 && len(b) >= tOff+4 &&
		(ipv.Proto() == view.IPProtoUDP || ipv.Proto() == view.IPProtoTCP)
	if portable {
		switch ipv.Proto() {
		case view.IPProtoUDP:
			if len(b) >= tOff+view.UDPHdrLen && get16(b, tOff+6) != 0 {
				csOff = tOff + 6
			}
		case view.IPProtoTCP:
			if len(b) >= tOff+18 {
				csOff = tOff + 16
			}
		}
	}
	adjust := func(old, new uint16) {
		if csOff >= 0 && old != new {
			put16(b, csOff, csumUpdate(get16(b, csOff), old, new))
		}
	}
	old := ipv.Dst()
	if src {
		old = ipv.Src()
	}
	oldU, newU := old.Uint32(), addr.Uint32()
	if oldU != newU {
		adjust(uint16(oldU>>16), uint16(newU>>16))
		adjust(uint16(oldU), uint16(newU))
		if src {
			ipv.SetSrc(addr)
		} else {
			ipv.SetDst(addr)
		}
		ipv.ComputeChecksum()
	}
	if setPort && portable {
		pOff := tOff
		if !src {
			pOff = tOff + 2
		}
		oldP := get16(b, pOff)
		if oldP != port {
			adjust(oldP, port)
			put16(b, pOff, port)
		}
	}
	// RFC 768: a computed UDP checksum of zero is transmitted as 0xffff.
	if csOff >= 0 && ipv.Proto() == view.IPProtoUDP && get16(b, csOff) == 0 {
		put16(b, csOff, 0xffff)
	}
	return true
}

// FlowTuple is the 5-tuple hashing and NAT keying work from. ok is false for
// non-IPv4 packets; ports are zero for non-first fragments and non-UDP/TCP
// protocols.
type FlowTuple struct {
	Src, Dst     uint32
	Proto        uint8
	SPort, DPort uint16
}

// ExtractTuple reads the packet's 5-tuple.
func ExtractTuple(b []byte, base filter.Base) (ft FlowTuple, ok bool) {
	off := ipOffset(base)
	if base == filter.BaseEthernet {
		eth, err := view.Ethernet(b)
		if err != nil || eth.EtherType() != view.EtherTypeIPv4 {
			return ft, false
		}
	}
	if len(b) < off+view.IPv4MinHdrLen {
		return ft, false
	}
	ipv, err := view.IPv4(b[off:])
	if err != nil {
		return ft, false
	}
	ft.Src = ipv.Src().Uint32()
	ft.Dst = ipv.Dst().Uint32()
	ft.Proto = ipv.Proto()
	if ipv.FragOffset() == 0 && (ft.Proto == view.IPProtoUDP || ft.Proto == view.IPProtoTCP) {
		tOff := off + ipv.HdrLen()
		if len(b) >= tOff+4 {
			ft.SPort = get16(b, tOff)
			ft.DPort = get16(b, tOff+2)
		}
	}
	return ft, true
}

// Hash folds the tuple with FNV-1a — deterministic across runs and
// platforms, so path and server selection replay identically.
func (ft FlowTuple) Hash() uint32 {
	h := uint32(2166136261)
	step := func(v byte) {
		h ^= uint32(v)
		h *= 16777619
	}
	step(byte(ft.Src >> 24))
	step(byte(ft.Src >> 16))
	step(byte(ft.Src >> 8))
	step(byte(ft.Src))
	step(byte(ft.Dst >> 24))
	step(byte(ft.Dst >> 16))
	step(byte(ft.Dst >> 8))
	step(byte(ft.Dst))
	step(ft.Proto)
	step(byte(ft.SPort >> 8))
	step(byte(ft.SPort))
	step(byte(ft.DPort >> 8))
	step(byte(ft.DPort))
	return h
}
