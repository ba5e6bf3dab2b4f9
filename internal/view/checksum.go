package view

import (
	"encoding/binary"
	"math/bits"
)

// Internet checksum (RFC 1071), with an accumulator form so transport layers
// can checksum a pseudo-header followed by a payload that spans mbuf chains
// without gathering the bytes first.

// Accum accumulates the one's-complement sum of byte runs. The zero value is
// ready to use. Runs may be added in any chunking; odd-length chunks are
// handled by carrying the dangling byte.
type Accum struct {
	sum uint64
	odd bool
}

// Add folds b into the accumulator. This is the per-packet hot loop of
// every modeled IP/UDP/TCP checksum. Aligned runs are summed as 64-bit
// big-endian words on an add-with-carry chain (end-around carry): 2^16 ≡ 1
// modulo 0xffff, so that sum is congruent to the sum of the 16-bit checksum
// words, and it is zero only when every word is, so Fold's result is exactly
// RFC 1071's. The chain is folded to 33 bits before it joins the
// accumulator, which defers the rest of the carry folding to Fold.
func (a *Accum) Add(b []byte) {
	if a.odd && len(b) > 0 {
		a.sum += uint64(b[0])
		a.odd = false
		b = b[1:]
	}
	var s, c uint64
	for len(b) >= 32 {
		w := b[:32:32]
		s, c = bits.Add64(s, binary.BigEndian.Uint64(w[0:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(w[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(w[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(w[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	s, c = bits.Add64(s, 0, c)
	s += c
	a.sum += s>>32 + s&0xffffffff
	i := 0
	for ; i+1 < len(b); i += 2 {
		a.sum += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if i < len(b) {
		a.sum += uint64(b[i]) << 8
		a.odd = true
	}
}

// AddUint16 folds one 16-bit value (for pseudo-header fields). It must not be
// called mid-byte (with an odd total so far).
func (a *Accum) AddUint16(v uint16) {
	if a.odd {
		panic("view: AddUint16 at odd offset")
	}
	a.sum += uint64(v)
}

// Fold finishes the sum and returns the complemented checksum.
func (a *Accum) Fold() uint16 {
	s := a.sum
	for s>>16 != 0 {
		s = (s & 0xffff) + (s >> 16)
	}
	return ^uint16(s)
}

// Checksum computes the internet checksum of b.
func Checksum(b []byte) uint16 {
	var a Accum
	a.Add(b)
	return a.Fold()
}

// PseudoHeader seeds an accumulator with the IPv4 pseudo-header used by UDP
// and TCP checksums.
func PseudoHeader(src, dst IP4, proto uint8, length int) Accum {
	var a Accum
	a.Add(src[:])
	a.Add(dst[:])
	a.AddUint16(uint16(proto))
	a.AddUint16(uint16(length))
	return a
}
