package main

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"

	"plexus/internal/sim"
)

// Payload content is a pure function of (flow, offset): byte i of flow f is
// patTable[(i + f·patStride) mod patPeriod]. The table is laid out twice so
// any run of up to patPeriod bytes is one contiguous slice, which makes both
// generation (copy) and verification (bytes.Equal) single calls that never
// allocate.
const (
	patPeriod = 65537 // prime, larger than one 64 KB bulk chunk
	patStride = 7919
)

var patTable = func() []byte {
	t := make([]byte, 2*patPeriod)
	rng := rand.New(rand.NewSource(0x5eed))
	rng.Read(t[:patPeriod])
	copy(t[patPeriod:], t[:patPeriod])
	return t
}()

// patSlice returns the pattern bytes of flow at offset off, n <= patPeriod.
func patSlice(flow uint32, off uint64, n int) []byte {
	i := (off + uint64(flow)*patStride) % patPeriod
	return patTable[i : i+uint64(n)]
}

// fillPattern writes flow's bytes [off, off+len(dst)) into dst.
func fillPattern(dst []byte, flow uint32, off uint64) {
	for len(dst) > 0 {
		n := min(len(dst), patPeriod)
		copy(dst[:n], patSlice(flow, off, n))
		dst, off = dst[n:], off+uint64(n)
	}
}

// matchPattern reports whether data is exactly flow's bytes starting at off.
func matchPattern(data []byte, flow uint32, off uint64) bool {
	for len(data) > 0 {
		n := min(len(data), patPeriod)
		if !bytes.Equal(data[:n], patSlice(flow, off, n)) {
			return false
		}
		data, off = data[n:], off+uint64(n)
	}
	return true
}

// fillMessage builds request seq of flow: the sequence number, then pattern
// bytes at an offset derived from it.
func fillMessage(msg []byte, flow uint32, seq uint64) {
	binary.BigEndian.PutUint64(msg, seq)
	fillPattern(msg[8:], flow, seq*uint64(len(msg)))
}

// matchMessage reports whether msg is exactly request seq of flow.
func matchMessage(msg []byte, flow uint32, seq uint64, size int) bool {
	return len(msg) == size && binary.BigEndian.Uint64(msg) == seq &&
		matchPattern(msg[8:], flow, seq*uint64(size))
}

// opLog accounts one shard's operations: every operation the workload
// attempted ends as either ok (with its simulated latency and delivered
// bytes) or failed; corrupt counts the failures whose payload differed
// from what the sender generated. Each log is written by one simulator
// only, so sharded workloads keep one log per shard.
type opLog struct {
	attempted, failed, corrupt uint64
	bytes                      uint64
	// hist buckets simulated latency by bit length of its nanoseconds.
	hist [64]uint64
}

func (l *opLog) ok(lat sim.Time, n int) {
	l.attempted++
	l.bytes += uint64(n)
	l.hist[bits.Len64(uint64(lat))]++
}

func (l *opLog) fail() {
	l.attempted++
	l.failed++
}

func (l *opLog) bad() {
	l.fail()
	l.corrupt++
}

func (l *opLog) add(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.corrupt += o.corrupt
	l.bytes += o.bytes
	for i := range l.hist {
		l.hist[i] += o.hist[i]
	}
}
