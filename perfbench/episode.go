package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"plexus/internal/audit"
	"plexus/internal/fabric"
	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
)

// workload is one named input set of the benchmark. Every episode of a
// workload builds a fresh topology from the seed, runs the simulated
// warm-up, and then measures a fixed number of fixed-length simulated
// chunks, so two episodes with the same seed do identical simulated work.
type workload struct {
	name string
	// build constructs the topology, primes ARP and installs the services
	// and clients. inject names a deliberate fault for the correctness gate
	// ("" in a real run).
	build func(seed int64, inject string) (*episode, error)
	// warmup is simulated time run before the measured window opens.
	warmup sim.Time
	// chunk and chunks fix the measured window: chunks × chunk of
	// simulated time, timed chunk by chunk.
	chunk  sim.Time
	chunks int
	// workers is the shard worker count (0: a single simulator).
	workers int
	// gcOffBuild builds with the collector off and sweeps once after, as
	// the repository's sharded scale cells do for large topologies.
	gcOffBuild bool
	// scaled reports the workload's costs at the reference speed (see
	// reference.go). Only fabric-vip sets it: across runs its per-frame
	// cost followed the reference's time (correlation 0.93), and scaling
	// cut its spread from 0.13-0.21 to 0.02-0.05. tcp-bulk and http-churn
	// followed the reference in some samples and not in others, where
	// scaling widened their spreads; udp-echo-10k runs on both CPUs and
	// does not follow a one-thread reference at all (correlation 0.06).
	scaled bool
}

// episode is one built instance of a workload.
type episode struct {
	sims    []*sim.Sim
	engine  *sim.Engine
	workers int
	now     sim.Time

	// stacks are all hosts and gateway interfaces; a delivered frame is one
	// NIC RxFrames increment on any of them.
	stacks    []*plexus.Stack
	switches  []*netdev.Switch
	injectors []*fault.Injector
	checkers  []*audit.Checker
	pipeline  *fabric.Pipeline
	// server is the stack whose live TCBs tcp.conns_live reports.
	server *plexus.Stack
	// logs holds one operation log per simulator.
	logs []*opLog
}

// advance runs every simulator d further in simulated time.
func (e *episode) advance(d sim.Time) {
	e.now += d
	if e.engine != nil {
		e.engine.Run(e.now, e.workers)
		return
	}
	e.sims[0].RunUntil(e.now)
}

// frames counts frames delivered to host NICs so far.
func (e *episode) frames() uint64 {
	var n uint64
	for _, st := range e.stacks {
		n += st.NIC.Stats().RxFrames
	}
	return n
}

func (e *episode) events() uint64 {
	var n uint64
	for _, s := range e.sims {
		n += s.Executed()
	}
	return n
}

// ops sums the per-simulator operation logs.
func (e *episode) ops() opLog {
	var l opLog
	for _, o := range e.logs {
		l.add(o)
	}
	return l
}

// counters are the episode's simulated-behaviour counts: deterministic for
// a seed, and unchanged by any change that only makes the simulator faster.
type counters struct {
	events, frames         uint64
	portDrops, faultLost   uint64
	tcpSegsOut, tcpRexmits uint64
	pipePackets, ruleHits  uint64
	swForwarded            uint64
	poolHighWater          int64
	conns                  int
}

func (e *episode) counters() counters {
	c := counters{events: e.events(), frames: e.frames()}
	for _, sw := range e.switches {
		c.portDrops += sw.QueueDrops()
		c.swForwarded += sw.Stats().Forwarded
	}
	for _, in := range e.injectors {
		c.faultLost += in.Stats().Lost
	}
	for _, st := range e.stacks {
		ts := st.TCP.Stats()
		c.tcpSegsOut += ts.SegsOut
		c.tcpRexmits += ts.Retransmits + ts.FastRexmits + ts.SackRexmits
		c.poolHighWater += st.Host.Pool.Stats().HighWater
	}
	if e.pipeline != nil {
		c.pipePackets = e.pipeline.Stats().Packets
		e.pipeline.EachRule(func(_, _ string, hits, _ uint64, _ bool) { c.ruleHits += hits })
	}
	if e.server != nil {
		c.conns = e.server.TCP.NumConns()
	}
	return c
}

// digest folds the episode's simulated outputs — operations, delivered
// bytes, the latency histogram, and the drop, loss and retransmit counters —
// into one value. It depends only on the seed and the simulated program, so
// it is identical across episodes, shard worker counts and tracing.
func (e *episode) digest() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	l := e.ops()
	put(l.attempted)
	put(l.failed)
	put(l.corrupt)
	put(l.bytes)
	for _, v := range l.hist {
		put(v)
	}
	c := e.counters()
	for _, v := range []uint64{c.events, c.frames, c.portDrops, c.faultLost, c.tcpSegsOut, c.tcpRexmits, c.pipePackets, uint64(c.conns)} {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// check runs the correctness gate on a finished episode.
func (e *episode) check() error {
	l := e.ops()
	if l.corrupt > 0 {
		return fmt.Errorf("%d operations delivered a payload that differs from what the sender generated", l.corrupt)
	}
	if l.attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	for i, ck := range e.checkers {
		if n := ck.ViolationCount(); n > 0 {
			v := ck.Violations()[0]
			return fmt.Errorf("host %d: %d RFC 793 violations (first at %v, %v->%v: %s)",
				i, n, v.Event.At, v.Event.Old, v.Event.New, v.Reason)
		}
	}
	return nil
}

// episodeResult is what one measured episode yields.
type episodeResult struct {
	// setupCPU is the process CPU time from the start of the build until
	// the window opens, setup the same at the reference speed when the
	// workload is scaled, and setupWall the span in wall-clock time.
	setup, setupCPU, setupWall time.Duration
	// perChunk is process CPU ns per delivered frame, one per chunk, at
	// the reference speed when the workload is scaled; perChunkCPU is the
	// same unscaled and perChunkWall in wall-clock ns.
	perChunk, perChunkCPU, perChunkWall []float64
	wall                                time.Duration
	frames                              uint64
	mallocs                             uint64
	bytes                               uint64
	heapMB                              float64
	gcCPU                               float64 // GC CPU seconds during the window
	totCPU                              float64 // available CPU seconds during the window
	ops                                 opLog
	digest                              string
	before                              counters // at window start
	after                               counters // at window end
	// engine accounting over the window (sharded workloads only)
	rounds       uint64
	parallelWall time.Duration
	busyWall     time.Duration
}

// runEpisode builds, warms and measures one episode. hook, when non-nil,
// is called after the warm-up and before the window opens (the traced run
// attaches its sinks there); chunkStart is called before every chunk.
func runEpisode(w *workload, seed int64, inject string, workers int,
	hook func(*episode), chunkStart func()) (episodeResult, error) {
	var r episodeResult
	// The episode's own live heap is what the heap holds after the window
	// beyond what it held before the build.
	var hm runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&hm)
	heapBase := hm.HeapAlloc
	var refSetup float64
	if w.scaled {
		refSetup = referenceNs()
	}
	start, startCPU := time.Now(), processCPU()
	gcPct := 100
	if w.gcOffBuild {
		gcPct = debug.SetGCPercent(-1)
	}
	ep, err := w.build(seed, inject)
	if err != nil {
		debug.SetGCPercent(gcPct)
		return r, err
	}
	ep.workers = workers
	ep.advance(w.warmup)
	runtime.GC()
	if w.gcOffBuild {
		debug.SetGCPercent(gcPct)
	}
	r.setupCPU, r.setupWall = processCPU()-startCPU, time.Since(start)
	r.setup = r.setupCPU
	if w.scaled {
		r.setup = time.Duration(float64(r.setupCPU) * refScale(refSetup, referenceNs()))
	}
	if hook != nil {
		hook(ep)
	}

	r.before = ep.counters()
	roundsBefore, parBefore, busyBefore := engineWall(ep)
	gc0, tot0 := cpuSeconds()
	var a, b runtime.MemStats
	for i := 0; i < w.chunks; i++ {
		runtime.ReadMemStats(&a)
		f0 := ep.frames()
		if chunkStart != nil {
			chunkStart()
		}
		var refBefore float64
		if w.scaled {
			refBefore = referenceNs()
		}
		t0, c0 := time.Now(), processCPU()
		ep.advance(w.chunk)
		d, cpu := time.Since(t0), processCPU()-c0
		scale := 1.0
		if w.scaled {
			scale = refScale(refBefore, referenceNs())
		}
		f1 := ep.frames()
		runtime.ReadMemStats(&b)
		if f1 == f0 {
			return r, fmt.Errorf("chunk %d delivered no frames", i)
		}
		r.wall += d
		r.frames += f1 - f0
		r.mallocs += b.Mallocs - a.Mallocs
		r.bytes += b.TotalAlloc - a.TotalAlloc
		cpuPerFrame := float64(cpu.Nanoseconds()) / float64(f1-f0)
		r.perChunk = append(r.perChunk, cpuPerFrame*scale)
		r.perChunkCPU = append(r.perChunkCPU, cpuPerFrame)
		r.perChunkWall = append(r.perChunkWall, float64(d.Nanoseconds())/float64(f1-f0))
	}
	gc1, tot1 := cpuSeconds()
	r.gcCPU, r.totCPU = gc1-gc0, tot1-tot0
	r.after = ep.counters()
	roundsAfter, parAfter, busyAfter := engineWall(ep)
	r.rounds = roundsAfter - roundsBefore
	r.parallelWall = parAfter - parBefore
	r.busyWall = busyAfter - busyBefore

	runtime.GC()
	runtime.ReadMemStats(&hm)
	r.heapMB = (float64(hm.HeapAlloc) - float64(heapBase)) / (1 << 20)

	if err := ep.check(); err != nil {
		return r, err
	}
	r.ops = ep.ops()
	r.digest = ep.digest()
	return r, nil
}

// engineWall reads the sharded engine's round count, parallel-phase wall
// time, and the shards' summed busy time.
func engineWall(ep *episode) (rounds uint64, parallel, busy time.Duration) {
	if ep.engine == nil {
		return 0, 0, 0
	}
	for _, sh := range ep.engine.Shards() {
		busy += sh.BusyWall()
	}
	return ep.engine.Rounds(), ep.engine.ParallelWall(), busy
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// cpuSeconds reads the runtime's estimate of GC CPU time and of all
// available CPU time (GOMAXPROCS × wall) since the process started.
func cpuSeconds() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}
