package view

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference implementation: straightforward RFC 1071 sum over one flat slice.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic example from RFC 1071 §3: the 16-bit words 0x0001, 0xf203,
	// 0xf4f5, 0xf6f7 sum to 0xddf2 before complement.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Errorf("Checksum(nil) = %#04x, want 0xffff", got)
	}
}

func TestChecksumVerifyProperty(t *testing.T) {
	// Appending the checksum of b to b yields a buffer whose checksum is 0.
	f := func(b []byte) bool {
		if len(b)%2 == 1 {
			b = append(b, 0)
		}
		c := Checksum(b)
		whole := append(append([]byte(nil), b...), byte(c>>8), byte(c))
		return Checksum(whole) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: the accumulator gives the same answer regardless of how the input
// is chunked, including odd-length chunks.
func TestQuickAccumChunkingInvariance(t *testing.T) {
	f := func(b []byte, cuts []uint8) bool {
		want := refChecksum(b)
		var a Accum
		rest := b
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c) % (len(rest) + 1)
			a.Add(rest[:n])
			rest = rest[n:]
		}
		a.Add(rest)
		return a.Fold() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// TestChecksumCarryChain drives the 64-bit add-with-carry loop through
// carries on every word: all-ones and near-all-ones runs of every length
// around the 8- and 32-byte block edges, at both byte parities.
func TestChecksumCarryChain(t *testing.T) {
	for _, fill := range []byte{0xff, 0xfe, 0x80} {
		for n := 0; n < 200; n++ {
			b := make([]byte, n+1)
			for i := range b {
				b[i] = fill
			}
			b[0] = 0x01
			for _, run := range [][]byte{b[1:], b} {
				if got, want := Checksum(run), refChecksum(run); got != want {
					t.Fatalf("fill %#x len %d: Checksum = %#04x, want %#04x", fill, len(run), got, want)
				}
			}
		}
	}
}

func TestAccumAddUint16(t *testing.T) {
	var a Accum
	a.AddUint16(0x1234)
	a.Add([]byte{0x56, 0x78})
	if got, want := a.Fold(), refChecksum([]byte{0x12, 0x34, 0x56, 0x78}); got != want {
		t.Errorf("mixed accum = %#04x, want %#04x", got, want)
	}
}

func TestAccumAddUint16AtOddOffsetPanics(t *testing.T) {
	var a Accum
	a.Add([]byte{0x01})
	defer func() {
		if recover() == nil {
			t.Fatal("AddUint16 at odd offset did not panic")
		}
	}()
	a.AddUint16(7)
}

func TestPseudoHeader(t *testing.T) {
	src, dst := IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}
	payload := []byte{0xca, 0xfe, 0xba, 0xbe}
	a := PseudoHeader(src, dst, IPProtoUDP, len(payload))
	a.Add(payload)
	got := a.Fold()
	flat := []byte{
		10, 0, 0, 1,
		10, 0, 0, 2,
		0, IPProtoUDP,
		0, byte(len(payload)),
		0xca, 0xfe, 0xba, 0xbe,
	}
	if want := refChecksum(flat); got != want {
		t.Errorf("pseudo-header checksum = %#04x, want %#04x", got, want)
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	buf := make([]byte, 1500)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}
