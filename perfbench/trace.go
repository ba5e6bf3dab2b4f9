package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"plexus/internal/sim"
)

// The traced run attaches one sink per simulator through Sim.SetMetrics.
// The sink counts every Hop by (layer, action) and every Sample by kind, and
// charges the host time between two consecutive hops to the earlier hop's
// layer: the self time of a layer is the host time spent after the stack
// entered it and before it handed the packet to the next layer. Per-hop
// records go to a ring allocated up front and are written out only when the
// benchmark ends.

// Layers, by the names the stack passes to Hop.
const (
	lWire = iota
	lEther
	lIP
	lUDP
	lTCP
	lEvent
	lOther
	nLayers
)

var layerNames = [nLayers]string{"wire", "ether", "ip", "udp", "tcp", "event", "other"}

// Hop kinds the ledger multiplies isolated costs by.
const (
	hWireTx = iota
	hWireRx
	hEtherSend
	hIPSend
	hIPForward
	hIPRecv
	hUDPSend
	hUDPRecv
	hTCPSend
	hTCPRecv
	hRaise
	hOther
	nHops
)

func classify(layer, action string) (l, h int) {
	switch layer {
	case "wire":
		switch action {
		case "tx":
			return lWire, hWireTx
		case "rx":
			return lWire, hWireRx
		}
		return lWire, hOther
	case "ether":
		return lEther, hEtherSend
	case "ip":
		switch action {
		case "send":
			return lIP, hIPSend
		case "forward":
			return lIP, hIPForward
		case "recv":
			return lIP, hIPRecv
		}
		return lIP, hOther
	case "udp":
		switch action {
		case "send":
			return lUDP, hUDPSend
		case "recv":
			return lUDP, hUDPRecv
		}
		return lUDP, hOther
	case "tcp":
		switch action {
		case "send":
			return lTCP, hTCPSend
		case "recv":
			return lTCP, hTCPRecv
		}
		return lTCP, hOther
	case "event":
		return lEvent, hRaise
	}
	return lOther, hOther
}

// spanRec is one hop as the ring keeps it.
type spanRec struct {
	span   uint64
	wallNs int64
	at     sim.Time
	host   string
	layer  string
	action string
	bytes  int32
}

// sink is a sim.Metrics that attributes host time to layers.
type sink struct {
	epoch   time.Time
	last    int64
	cur     int
	running bool

	self   [nLayers]int64
	perLay [nLayers]uint64
	hops   [nHops]uint64
	// serverRecv counts TCP receive hops on the workload's server host, the
	// one whose demux scans every live TCB.
	server     string
	serverRecv uint64
	samples    [sim.NumProfKinds]uint64
	dur        [sim.NumProfKinds]sim.Time

	ring []spanRec
	next uint64
}

func newSink(epoch time.Time, ringCap int) *sink {
	return &sink{epoch: epoch, ring: make([]spanRec, ringCap)}
}

// Hop implements sim.Metrics.
func (s *sink) Hop(span uint64, at sim.Time, host, layer, action string, bytes int) {
	now := int64(time.Since(s.epoch))
	l, h := classify(layer, action)
	if s.running {
		s.self[s.cur] += now - s.last
	}
	s.last, s.cur, s.running = now, l, true
	s.hops[h]++
	s.perLay[l]++
	if h == hTCPRecv && host == s.server {
		s.serverRecv++
	}
	r := &s.ring[s.next%uint64(len(s.ring))]
	*r = spanRec{span: span, wallNs: now, at: at, host: host, layer: layer, action: action, bytes: int32(bytes)}
	s.next++
}

// Sample implements sim.Metrics.
func (s *sink) Sample(host string, kind sim.ProfKind, owner string, prio sim.Priority, start, dur sim.Time) {
	s.samples[kind]++
	s.dur[kind] += dur
}

// QueueDepth implements sim.Metrics.
func (s *sink) QueueDepth(host string, depth int) {}

// pause drops the interval since the last hop: the next hop starts a fresh
// attribution. It runs before every timed chunk and at the start of every
// shard's engine round, so measurement code and other shards' work are never
// charged to a layer.
func (s *sink) pause() { s.running = false }

// roundHook is a sim.Coupling that carries nothing; the engine calls its
// Drain at the start of every round of the shard it is connected to, which
// is where the shard's sink pauses.
type roundHook struct{ s *sink }

func (h roundHook) Lookahead() sim.Time { return 1 << 62 }
func (h roundHook) Flip()               {}
func (h roundHook) Drain()              { h.s.pause() }

// tracer owns the sinks of a traced phase.
type tracer struct {
	epoch time.Time
	sinks []*sink
}

// attach installs a fresh sink on every simulator of ep.
func (tr *tracer) attach(ep *episode) {
	per := max(1024, (1<<16)/len(ep.sims))
	byShard := map[*sim.Sim]*sink{}
	for _, s := range ep.sims {
		k := newSink(tr.epoch, per)
		if ep.server != nil {
			k.server = ep.server.Name()
		}
		s.SetMetrics(k)
		byShard[s] = k
		tr.sinks = append(tr.sinks, k)
	}
	if ep.engine != nil {
		for _, sh := range ep.engine.Shards() {
			ep.engine.Connect(roundHook{byShard[sh.Sim()]}, sh)
		}
	}
}

// pauseAll pauses every sink.
func (tr *tracer) pauseAll() {
	for _, k := range tr.sinks {
		k.pause()
	}
}

// totals sums all sinks.
func (tr *tracer) totals() (t sink) {
	for _, k := range tr.sinks {
		for i := range k.self {
			t.self[i] += k.self[i]
			t.perLay[i] += k.perLay[i]
		}
		for i := range k.hops {
			t.hops[i] += k.hops[i]
		}
		t.serverRecv += k.serverRecv
		for i := range k.samples {
			t.samples[i] += k.samples[i]
			t.dur[i] += k.dur[i]
		}
	}
	return t
}

// writeSpans writes every ring's records, oldest first, as tab-separated
// lines to path.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\twall_ns\tsim_ns\thost\tlayer\taction\tbytes")
	for _, k := range tr.sinks {
		n := uint64(len(k.ring))
		from := uint64(0)
		if k.next > n {
			from = k.next - n
		}
		for i := from; i < k.next; i++ {
			r := &k.ring[i%n]
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%s\t%d\n", r.span, r.wallNs, int64(r.at), r.host, r.layer, r.action, r.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
