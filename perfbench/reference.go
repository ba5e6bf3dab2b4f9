package main

import (
	"math/rand"
	"time"
)

// The reference is a fixed miniature of the simulator's inner loop, kept
// in this benchmark so that no change to the program under test alters it:
// a 4-ary min-heap of timestamped events whose handlers are called through
// an interface, a map lookup keyed like a MAC table, and a 64-byte frame
// copied and summed per event.
//
// A small shared machine changes speed by ±15% over tens of seconds as
// other tenants come and go, and code shaped like the simulator feels it
// far more than a plain arithmetic loop does. Timed next to every measured
// chunk, the reference tracks that drift for the workloads that set scaled
// (see workload.scaled), so dividing by it leaves their cost at one fixed
// machine speed.

// refEvents is the number of reference events timed before and after each
// chunk; refNominalNs is their time at the reference speed — what they
// took on the 2-vCPU machine the benchmark was defined on.
const (
	refEvents    = 5000
	refNominalNs = 560_000
)

type refEvent struct {
	at uint64
	h  refHandler
}

type refHandler interface{ handle(r *refSim, ev refEvent) }

type refFwd struct{ port uint32 }
type refEcho struct{ n uint64 }

type refSim struct {
	q     []refEvent
	macs  map[uint64]uint32
	keys  []uint64
	frame [64]byte
	buf   [64]byte
	rng   uint64
	sum   uint64
}

func (f *refFwd) handle(r *refSim, ev refEvent) {
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	r.sum += uint64(r.macs[r.keys[r.rng>>54]])
	r.push(refEvent{at: ev.at + 1 + r.rng>>58, h: ev.h})
}

func (e *refEcho) handle(r *refSim, ev refEvent) {
	copy(r.buf[:], r.frame[:])
	var s uint32
	for i := 0; i < len(r.buf); i += 2 {
		s += uint32(r.buf[i])<<8 | uint32(r.buf[i+1])
	}
	e.n += uint64(s)
	r.push(refEvent{at: ev.at + 3, h: ev.h})
}

func newRefSim() *refSim {
	r := &refSim{macs: map[uint64]uint32{}, rng: 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		k := rng.Uint64()
		r.macs[k] = uint32(i)
		r.keys = append(r.keys, k)
	}
	rng.Read(r.frame[:])
	for i := 0; i < 512; i++ {
		var h refHandler = &refFwd{port: uint32(i)}
		if i%2 == 1 {
			h = &refEcho{}
		}
		r.push(refEvent{at: uint64(rng.Intn(1000)), h: h})
	}
	return r
}

func (r *refSim) push(ev refEvent) {
	q := append(r.q, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if q[p].at <= q[i].at {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	r.q = q
}

func (r *refSim) pop() refEvent {
	q := r.q
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].at < q[m].at {
				m = j
			}
		}
		if q[i].at <= q[m].at {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	r.q = q
	return ev
}

var theRef = newRefSim()

// refScale converts a cost measured between two reference timings to the
// reference speed.
func refScale(before, after float64) float64 {
	return refNominalNs / ((before + after) / 2)
}

// referenceNs times refEvents events of the reference loop.
func referenceNs() float64 {
	t := time.Now()
	for i := 0; i < refEvents; i++ {
		ev := theRef.pop()
		ev.h.handle(theRef, ev)
	}
	return float64(time.Since(t).Nanoseconds())
}
