package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeqComparisonsBasic(t *testing.T) {
	cases := []struct {
		a, b           uint32
		lt, le, gt, ge bool
	}{
		{0, 0, false, true, false, true},
		{0, 1, true, true, false, false},
		{1, 0, false, false, true, true},
		// Wraparound: 0xFFFFFFFF is just before 0.
		{0xFFFFFFFF, 0, true, true, false, false},
		{0, 0xFFFFFFFF, false, false, true, true},
		{0xFFFFFF00, 0x00000100, true, true, false, false},
	}
	for _, c := range cases {
		if seqLT(c.a, c.b) != c.lt || seqLE(c.a, c.b) != c.le ||
			seqGT(c.a, c.b) != c.gt || seqGE(c.a, c.b) != c.ge {
			t.Errorf("comparisons wrong for (%#x, %#x)", c.a, c.b)
		}
	}
}

func TestSeqMax(t *testing.T) {
	if seqMax(5, 9) != 9 || seqMax(9, 5) != 9 {
		t.Error("seqMax basic")
	}
	if seqMax(0xFFFFFFFF, 1) != 1 {
		t.Error("seqMax should respect wraparound (1 is after 0xFFFFFFFF)")
	}
}

// Properties of sequence arithmetic, valid for values within half the space.
func TestQuickSeqProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}

	// Antisymmetry: a < b ⇒ !(b < a); and trichotomy with equality.
	if err := quick.Check(func(a uint32, deltaRaw uint32) bool {
		delta := deltaRaw % (1 << 30) // stay within half the space
		b := a + delta
		switch {
		case delta == 0:
			return !seqLT(a, b) && !seqGT(a, b) && seqLE(a, b) && seqGE(a, b)
		default:
			return seqLT(a, b) && seqGT(b, a) && !seqLT(b, a) && seqLE(a, b) && !seqGE(a, b)
		}
	}, cfg); err != nil {
		t.Error(err)
	}

	// Shift invariance: comparisons survive adding any offset to both.
	if err := quick.Check(func(a, off uint32, deltaRaw uint32) bool {
		delta := deltaRaw%(1<<30) + 1
		b := a + delta
		return seqLT(a, b) == seqLT(a+off, b+off)
	}, cfg); err != nil {
		t.Error(err)
	}

	// seqMax returns one of its arguments and is ≥ both.
	if err := quick.Check(func(a uint32, deltaRaw uint32) bool {
		b := a + deltaRaw%(1<<30)
		m := seqMax(a, b)
		return (m == a || m == b) && seqGE(m, a) && seqGE(m, b)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestSegTextLen(t *testing.T) {
	cases := []struct {
		payload int
		flags   uint8
		want    uint32
	}{
		{0, 0, 0},
		{10, 0, 10},
		{0, 0x02 /*SYN*/, 1},
		{0, 0x01 /*FIN*/, 1},
		{5, 0x03 /*SYN|FIN*/, 7},
	}
	for _, c := range cases {
		s := seg{dataLen: c.payload, flags: c.flags}
		if got := s.segTextLen(); got != c.want {
			t.Errorf("segTextLen(payload=%d flags=%#x) = %d, want %d", c.payload, c.flags, got, c.want)
		}
	}
}

func TestStateString(t *testing.T) {
	for s := StateClosed; s <= StateTimeWait; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty name", int(s))
		}
	}
	if StateEstablished.String() != "ESTABLISHED" {
		t.Error("ESTABLISHED name wrong")
	}
	if State(99).String() != "State(99)" {
		t.Error("unknown state format wrong")
	}
}
