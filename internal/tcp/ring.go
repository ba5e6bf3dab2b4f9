package tcp

// sendRing is a connection's send buffer: the bytes from snd.una onward
// (unacknowledged, then unsent) held in a byte ring. An acknowledgment
// advances the head, Send appends at the tail, and a segment reads its
// payload as up to two slices across the wrap, so buffered bytes never
// move except when the ring grows.
type sendRing struct {
	buf  []byte
	head int // index of the byte at snd.una
	n    int // buffered bytes
}

// write appends p at the tail. It never refuses: when the buffered bytes
// would exceed the capacity, the ring grows first.
func (r *sendRing) write(p []byte) {
	if r.n == 0 && len(p) > len(r.buf) {
		// An empty ring too small for p takes a copy of p as its storage:
		// append copies into fresh memory without zeroing it first, where
		// make would clear the whole (possibly many-megabyte) buffer.
		r.buf = append([]byte(nil), p...)
		r.buf = r.buf[:cap(r.buf)]
		r.head, r.n = 0, len(p)
		return
	}
	if need := r.n + len(p); need > len(r.buf) {
		r.grow(need)
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	k := copy(r.buf[tail:], p)
	copy(r.buf, p[k:])
	r.n += len(p)
}

// grow reallocates the ring to hold need bytes, copying the buffered bytes
// to its front once. The new size is need, or the old capacity plus a
// quarter when that is larger, so a run of small writes against a closed
// window costs amortised linear copying instead of one full copy per write;
// a write larger than that headroom sizes the ring exactly.
func (r *sendRing) grow(need int) {
	buf := make([]byte, max(need, len(r.buf)+len(r.buf)/4))
	a, b := r.span(0, r.n)
	copy(buf[copy(buf, a):], b)
	r.buf, r.head = buf, 0
}

// span returns the buffered bytes [off, off+n) as at most two slices: the
// second is non-empty only when the range crosses the end of the storage.
func (r *sendRing) span(off, n int) ([]byte, []byte) {
	start := r.head + off
	if start >= len(r.buf) {
		start -= len(r.buf)
	}
	if end := start + n; end <= len(r.buf) {
		return r.buf[start:end], nil
	}
	return r.buf[start:], r.buf[:start+n-len(r.buf)]
}

// consume drops n acknowledged bytes from the head, or every buffered byte
// when n is larger. An emptied ring restarts at index 0 so the next
// segments are contiguous.
func (r *sendRing) consume(n int) {
	if n >= r.n {
		r.head, r.n = 0, 0
		return
	}
	r.head += n
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.n -= n
}
