package mbuf

import (
	"bytes"
	"errors"
	"testing"
)

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestFromBytesSmall(t *testing.T) {
	p := NewPool()
	data := payload(64)
	m := p.FromBytes(data, 96)
	defer m.Free()
	if m.PktLen() != 64 {
		t.Fatalf("PktLen = %d, want 64", m.PktLen())
	}
	if m.NumBufs() != 1 {
		t.Fatalf("NumBufs = %d, want 1", m.NumBufs())
	}
	got, err := m.CopyData(0, 64)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesLargeUsesClusters(t *testing.T) {
	p := NewPool()
	data := payload(5000)
	m := p.FromBytes(data, 64)
	defer m.Free()
	if m.PktLen() != 5000 {
		t.Fatalf("PktLen = %d", m.PktLen())
	}
	cluster := false
	for mm := m; mm != nil; mm = mm.Next() {
		if mm.IsCluster() {
			cluster = true
		}
	}
	if !cluster {
		t.Fatal("5000-byte packet built without clusters")
	}
	got, _ := m.CopyData(0, 5000)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted crossing buffers")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadHeadroomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad headroom")
		}
	}()
	NewPool().FromBytes(nil, MLEN+1)
}

// TestAllocMatchesFromBytesLayout pins Alloc to FromBytes's chain shape:
// the same mbufs, clusters and per-mbuf lengths for every size across the
// head, small and cluster boundaries.
func TestAllocMatchesFromBytesLayout(t *testing.T) {
	p := NewPool()
	for _, headroom := range []int{0, 64, MLEN} {
		for n := 0; n < 3*MCLBYTES+2*MLEN; n += 37 {
			a, f := p.Alloc(n, headroom), p.FromBytes(payload(n), headroom)
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("n=%d headroom=%d: %v", n, headroom, err)
			}
			ma, mf := a, f
			for ; ma != nil && mf != nil; ma, mf = ma.Next(), mf.Next() {
				if ma.Len() != mf.Len() || ma.IsCluster() != mf.IsCluster() || ma.off != mf.off {
					t.Fatalf("n=%d headroom=%d: Alloc mbuf (len %d, cluster %v, off %d), FromBytes (len %d, cluster %v, off %d)",
						n, headroom, ma.Len(), ma.IsCluster(), ma.off, mf.Len(), mf.IsCluster(), mf.off)
				}
			}
			if ma != nil || mf != nil || a.PktLen() != n {
				t.Fatalf("n=%d headroom=%d: Alloc has %d mbufs (len %d), FromBytes %d", n, headroom, a.NumBufs(), a.PktLen(), f.NumBufs())
			}
			a.Free()
			f.Free()
		}
	}
}

func TestPrependInPlace(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(32), 64)
	defer m.Free()
	m2, err := m.Prepend(14)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatal("prepend with headroom allocated a new mbuf")
	}
	if m.PktLen() != 46 {
		t.Fatalf("PktLen = %d, want 46", m.PktLen())
	}
	b, err := m.MutableBytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		if b[i] != 0 {
			t.Fatal("prepended bytes not zeroed")
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrependAllocates(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(32), 0) // no headroom
	m2, err := m.Prepend(20)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Free()
	if m2 == m {
		t.Fatal("expected a new head mbuf")
	}
	if m2.PktLen() != 52 {
		t.Fatalf("PktLen = %d, want 52", m2.PktLen())
	}
	if m.Hdr() != nil {
		t.Fatal("old head kept the packet header")
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrependErrors(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(8), 0)
	defer m.Free()
	if _, err := m.Prepend(MLEN + 1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("huge prepend: err = %v, want ErrNoSpace", err)
	}
	if _, err := m.Prepend(-1); !errors.Is(err, ErrRange) {
		t.Errorf("negative prepend: err = %v, want ErrRange", err)
	}
	m.SetReadOnly()
	if _, err := m.Prepend(4); !errors.Is(err, ErrReadOnly) {
		t.Errorf("read-only prepend: err = %v, want ErrReadOnly", err)
	}
}

func TestPrependOnNonHeader(t *testing.T) {
	p := NewPool()
	m := p.Get()
	if _, err := m.Prepend(4); err == nil {
		t.Fatal("Prepend on non-header mbuf succeeded")
	}
	m.Free()
}

func TestAppend(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(16), 32)
	defer m.Free()
	extra := payload(3000)
	if err := m.Append(extra); err != nil {
		t.Fatal(err)
	}
	if m.PktLen() != 3016 {
		t.Fatalf("PktLen = %d, want 3016", m.PktLen())
	}
	got, _ := m.CopyData(16, 3000)
	if !bytes.Equal(got, extra) {
		t.Fatal("appended data corrupted")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReadOnlyFails(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(16), 0)
	defer m.Free()
	m.SetReadOnly()
	if err := m.Append([]byte{1}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
}

func TestAdjFront(t *testing.T) {
	p := NewPool()
	data := payload(600)
	m := p.FromBytes(data, 0)
	defer m.Free()
	m.Adj(100)
	if m.PktLen() != 500 {
		t.Fatalf("PktLen = %d, want 500", m.PktLen())
	}
	got, _ := m.CopyData(0, 500)
	if !bytes.Equal(got, data[100:]) {
		t.Fatal("front trim removed wrong bytes")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjBack(t *testing.T) {
	p := NewPool()
	data := payload(600)
	m := p.FromBytes(data, 0)
	defer m.Free()
	m.Adj(-150)
	if m.PktLen() != 450 {
		t.Fatalf("PktLen = %d, want 450", m.PktLen())
	}
	got, _ := m.CopyData(0, 450)
	if !bytes.Equal(got, data[:450]) {
		t.Fatal("back trim removed wrong bytes")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjOvershootEmpties(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(40), 0)
	defer m.Free()
	m.Adj(1000)
	if m.PktLen() != 0 {
		t.Fatalf("PktLen = %d, want 0", m.PktLen())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPullup(t *testing.T) {
	p := NewPool()
	data := payload(700)
	m := p.FromBytes(data, MLEN-8) // head holds only 8 bytes
	if m.Len() >= 40 {
		t.Fatalf("test setup: head already holds %d bytes", m.Len())
	}
	m2, err := m.Pullup(40)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Free()
	if m2.Len() < 40 {
		t.Fatalf("head holds %d bytes after Pullup(40)", m2.Len())
	}
	if m2.PktLen() != 700 {
		t.Fatalf("PktLen = %d, want 700", m2.PktLen())
	}
	got, _ := m2.CopyData(0, 700)
	if !bytes.Equal(got, data) {
		t.Fatal("pullup corrupted data")
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPullupNoopWhenContiguous(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(100), 0)
	defer m.Free()
	m2, err := m.Pullup(50)
	if err != nil || m2 != m {
		t.Fatalf("contiguous pullup should be a no-op: %v", err)
	}
}

func TestPullupErrors(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(100), 0)
	defer m.Free()
	if _, err := m.Pullup(101); !errors.Is(err, ErrRange) {
		t.Errorf("pullup beyond packet: %v", err)
	}
	big := p.FromBytes(payload(MLEN*3), 0)
	defer big.Free()
	if _, err := big.Pullup(MLEN + 1); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversized pullup: %v", err)
	}
}

func TestCopyDataRange(t *testing.T) {
	p := NewPool()
	data := payload(3000)
	m := p.FromBytes(data, 16)
	defer m.Free()
	got, err := m.CopyData(1500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1500:2500]) {
		t.Fatal("mid-chain copy wrong")
	}
	if _, err := m.CopyData(-1, 5); !errors.Is(err, ErrRange) {
		t.Error("negative offset accepted")
	}
	if _, err := m.CopyData(0, 3001); !errors.Is(err, ErrRange) {
		t.Error("overlong copy accepted")
	}
}

func TestCloneSharesClusters(t *testing.T) {
	p := NewPool()
	data := payload(4000)
	m := p.FromBytes(data, 0)
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Shared cluster regions must refuse mutation on both chains.
	var sharedSeen bool
	for mm := m; mm != nil; mm = mm.Next() {
		if mm.IsCluster() {
			sharedSeen = true
			if _, err := mm.MutableBytes(); !errors.Is(err, ErrReadOnly) {
				t.Error("original cluster writable while shared")
			}
		}
	}
	if !sharedSeen {
		t.Fatal("no clusters in 4000-byte packet")
	}
	got, _ := c.CopyData(0, 4000)
	if !bytes.Equal(got, data) {
		t.Fatal("clone data differs")
	}
	// Freeing the clone restores writability to the original.
	c.Free()
	for mm := m; mm != nil; mm = mm.Next() {
		if mm.IsCluster() {
			if _, err := mm.MutableBytes(); err != nil {
				t.Error("original cluster still unwritable after clone freed")
			}
		}
	}
	m.Free()
}

func TestDeepCopyIsWritable(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(3000), 0)
	defer m.Free()
	m.SetReadOnly()
	d, err := m.DeepCopy()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Free()
	for mm := d; mm != nil; mm = mm.Next() {
		if !mm.Writable() {
			t.Fatal("deep copy not writable")
		}
	}
	if d.PktLen() != 3000 {
		t.Fatalf("deep copy PktLen = %d", d.PktLen())
	}
}

func TestReadOnlyDiscipline(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(64), 16)
	defer m.Free()
	if _, err := m.MutableBytes(); err != nil {
		t.Fatal("fresh packet should be writable")
	}
	m.SetReadOnly()
	if !m.ReadOnly() {
		t.Fatal("ReadOnly() = false after SetReadOnly")
	}
	if _, err := m.MutableBytes(); !errors.Is(err, ErrReadOnly) {
		t.Fatal("read-only packet was writable: the BadPacketRecv case must fail")
	}
	// The paper's GoodPacketRecv: copy, then modify.
	cp, err := m.DeepCopy()
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Free()
	b, err := cp.MutableBytes()
	if err != nil {
		t.Fatal("copy of read-only packet should be writable")
	}
	for i := range b {
		b[i] = 0
	}
}

func TestSplit(t *testing.T) {
	p := NewPool()
	data := payload(3000)
	m := p.FromBytes(data, 0)
	a, b, err := m.Split(1234)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Free()
	defer b.Free()
	if a.PktLen() != 1234 || b.PktLen() != 3000-1234 {
		t.Fatalf("split lengths %d/%d", a.PktLen(), b.PktLen())
	}
	ga, _ := a.CopyData(0, a.PktLen())
	gb, _ := b.CopyData(0, b.PktLen())
	if !bytes.Equal(ga, data[:1234]) || !bytes.Equal(gb, data[1234:]) {
		t.Fatal("split data wrong")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAtBoundaries(t *testing.T) {
	p := NewPool()
	for _, off := range []int{0, 500} {
		m := p.FromBytes(payload(500), 0)
		a, b, err := m.Split(off)
		if err != nil {
			t.Fatalf("Split(%d): %v", off, err)
		}
		if a.PktLen() != off || b.PktLen() != 500-off {
			t.Fatalf("Split(%d) lengths %d/%d", off, a.PktLen(), b.PktLen())
		}
		a.Free()
		b.Free()
	}
}

func TestCat(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(100), 0)
	n := p.FromBytes(payload(200), 0)
	if err := m.Cat(n); err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	if m.PktLen() != 300 {
		t.Fatalf("PktLen = %d, want 300", m.PktLen())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolStatsAndRecycling(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(100), 0)
	s := p.Stats()
	if s.InUse != int64(m.NumBufs()) {
		t.Fatalf("InUse = %d, want %d", s.InUse, m.NumBufs())
	}
	m.Free()
	s = p.Stats()
	if s.InUse != 0 {
		t.Fatalf("InUse after free = %d", s.InUse)
	}
	m2 := p.Get()
	if p.Stats().Recycled == 0 {
		t.Fatal("free-listed mbuf not recycled")
	}
	m2.Free()
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(10), 0)
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free()
}

func TestDefaultPool(t *testing.T) {
	m := DefaultPool().FromBytes(payload(10), 0)
	if m.PktLen() != 10 {
		t.Fatal("default pool broken")
	}
	m.Free()
}

func TestHdrAccessors(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(10), 0)
	defer m.Free()
	m.Hdr().RcvIf = "eth0"
	m.Hdr().Timestamp = 42
	m.Hdr().Multicast = true
	if m.Hdr().RcvIf != "eth0" || m.Hdr().Timestamp != 42 || !m.Hdr().Multicast {
		t.Fatal("header fields lost")
	}
	nonHead := p.Get()
	defer nonHead.Free()
	if nonHead.Hdr() != nil {
		t.Fatal("non-head mbuf has a header")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PktLen on non-head did not panic")
		}
	}()
	nonHead.PktLen()
}

func TestClusterRecycling(t *testing.T) {
	p := NewPool()
	m := p.GetCluster()
	if !m.IsCluster() {
		t.Fatal("GetCluster returned a non-cluster mbuf")
	}
	st := p.Stats()
	if st.AllocCluster != 1 {
		t.Fatalf("AllocCluster = %d, want 1", st.AllocCluster)
	}
	if st.Recycled != 0 {
		t.Fatalf("Recycled = %d before any free, want 0", st.Recycled)
	}
	m.Free()
	m2 := p.GetCluster()
	st = p.Stats()
	if st.AllocCluster != 2 {
		t.Fatalf("AllocCluster = %d, want 2", st.AllocCluster)
	}
	// Both the small mbuf and its cluster come from the free lists.
	if st.Recycled != 2 {
		t.Fatalf("Recycled = %d after cluster reuse, want 2 (small + cluster)", st.Recycled)
	}
	m2.Free()
}

func TestClusterRecycleAllocs(t *testing.T) {
	p := NewPool()
	// Warm the free lists.
	p.GetCluster().Free()
	avg := testing.AllocsPerRun(100, func() {
		p.GetCluster().Free()
	})
	if avg != 0 {
		t.Fatalf("warm GetCluster/Free allocates %.2f/iter, want 0", avg)
	}
}

func TestSharedClusterNotRecycledEarly(t *testing.T) {
	p := NewPool()
	m := p.FromBytes(payload(MLEN+100), 0) // tail lands in a cluster
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	m.Free() // cluster still referenced by clone
	got, err := clone.CopyData(0, clone.PktLen())
	if err != nil {
		t.Fatal(err)
	}
	want := payload(MLEN + 100)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted after partner free: got %d want %d", i, got[i], want[i])
		}
	}
	clone.Free()
}
