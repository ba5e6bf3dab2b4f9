package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/filter"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Isolation drivers time single calls into one layer's public functions on
// a fixed, seeded input, in the shape of the repository's
// BenchmarkDispatch*/BenchmarkEventQueue*/BenchmarkMbufPrependAdj
// benchmarks. Each reports host ns per call (the median of several timed
// batches) and heap allocations per call.

type isoCost struct{ ns, allocs float64 }

// timeOp times op, spending about budget in total.
func timeOp(budget time.Duration, op func()) isoCost {
	for i := 0; i < 16; i++ {
		op()
	}
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t) > budget/16 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	const rounds = 7
	per := make([]float64, 0, rounds)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for r := 0; r < rounds; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&b)
	return isoCost{ns: median(per), allocs: float64(b.Mallocs-a.Mallocs) / float64(rounds*n)}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// isoDriver is one named isolation measurement. run returns the metrics it
// produces, keyed by metric name.
type isoDriver struct {
	name string
	run  func(seed int64, budget time.Duration) (map[string]float64, error)
}

var isoDrivers = []isoDriver{
	{"sim.push_pop", isoPushPop},
	{"sim.timer_rearm", isoTimerRearm},
	{"event.raise", isoRaise},
	{"tcp.seg", isoTCPSeg},
	{"tcp.conn_cycle", isoConnCycle},
	{"tcp.demux", isoDemux},
	{"mbuf", isoMbuf},
	{"view.cksum", isoChecksum},
	{"tx", isoTx},
	{"netdev.switch_fwd", isoSwitch},
	{"fabric", isoFabric},
}

// runIsolation runs every driver within budget.
func runIsolation(seed int64, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	each := budget / 24 // one share per timed call site
	for _, d := range isoDrivers {
		m, err := d.run(seed, each)
		if err != nil {
			return nil, fmt.Errorf("isolation %s: %w", d.name, err)
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// taskOn runs an empty task on cpu and returns it, for drivers that call
// layer functions which charge simulated time to a task.
func taskOn(cpu *sim.CPU) *sim.Task {
	var task *sim.Task
	cpu.Submit(sim.PrioKernel, "perfbench", func(t *sim.Task) { task = t })
	cpu.Sim().Run()
	return task
}

func noopArg(any) {}

// isoPushPop: one push and one pop on a queue holding 1024 events.
func isoPushPop(seed int64, budget time.Duration) (map[string]float64, error) {
	s := sim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(rng.Int63n(int64(sim.Millisecond)))
	}
	for i := 0; i < 1024; i++ {
		s.AfterArg(delays[i], "x", noopArg, nil)
	}
	i := 0
	c := timeOp(budget, func() {
		s.AfterArg(delays[i&4095], "x", noopArg, nil)
		s.Step()
		i++
	})
	return map[string]float64{"sim.push_pop_ns": c.ns}, nil
}

// isoTimerRearm: stop a pending timer and arm a fresh one with a new
// closure, the pattern TCP's retransmission, delayed-ACK and pacing timers
// use on every re-arm. Time advances past the timeout every 64 re-arms so
// cancelled events leave the queue as they do in a running connection.
func isoTimerRearm(seed int64, budget time.Duration) (map[string]float64, error) {
	s := sim.New(seed)
	const rto = 200 * sim.Millisecond
	var timer sim.Timer
	fired := 0
	i := 0
	c := timeOp(budget, func() {
		timer.Stop()
		n := i
		timer = s.After(rto, "tcp-rexmit", func() { fired += n })
		i++
		if i%64 == 0 {
			s.RunUntil(s.Now() + rto + 1)
		}
	})
	return map[string]float64{"sim.timer_rearm_ns": c.ns, "sim.timer_rearm_allocs": c.allocs}, nil
}

// isoRaise: one raise of an event with g guards, g-1 rejecting and one
// accepting a trivial handler (BenchmarkDispatch's shape).
func isoRaise(seed int64, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, g := range []int{1, 8, 64} {
		s := sim.New(seed)
		cpu := sim.NewCPU(s, "cpu")
		d := event.NewDispatcher(event.DefaultCosts())
		d.MustDeclare("E", event.Options{})
		reject := func(*sim.Task, *mbuf.Mbuf) bool { return false }
		for i := 0; i < g-1; i++ {
			if _, err := d.Install("E", reject, event.Proc("r", func(*sim.Task, *mbuf.Mbuf) {}), 0); err != nil {
				return nil, err
			}
		}
		if _, err := d.Install("E", nil, event.Proc("h", func(*sim.Task, *mbuf.Mbuf) {}), 0); err != nil {
			return nil, err
		}
		m := mbuf.NewPool().FromBytes(make([]byte, 64), 16)
		task := taskOn(cpu)
		ref := d.Ref("E")
		c := timeOp(budget, func() { ref.Raise(task, m) })
		out[fmt.Sprintf("event.raise_ns.g%d", g)] = c.ns
	}
	return out, nil
}

// fastModel is a wire on which serialization, propagation and interface
// queueing are negligible, so a driver measures host cost only.
func fastModel() netdev.Model {
	m := netdev.EthernetModel()
	m.Name = "fast"
	m.BitsPerSec = 10_000_000_000
	m.MaxBacklog = 0
	return m
}

// pair builds two hosts on one fast bus with ARP primed.
func pair(seed int64) (*plexus.Topology, *plexus.Stack, *plexus.Stack, error) {
	top, err := plexus.NewTopology(seed, nil, []plexus.SegmentSpec{{
		Name: "iso", Model: fastModel(), Subnet: view.IP4{10, 9, 0, 0},
		Hosts: []plexus.HostSpec{spinHost("a"), spinHost("b")},
	}})
	if err != nil {
		return nil, nil, nil, err
	}
	top.PrimeARP()
	return top, top.Segments[0].Hosts[0], top.Segments[0].Hosts[1], nil
}

// submit runs fn as a fresh task on st's CPU and drains the simulator.
func submit(top *plexus.Topology, st *plexus.Stack, fn func(*sim.Task, any), arg any) {
	st.Host.CPU.SubmitAtArg(top.Sim.Now(), sim.PrioKernel, "perfbench", fn, arg)
	top.Sim.Run()
}

// established opens n connections from a to b's port 9000 and returns the
// client ends.
func established(top *plexus.Topology, a, b *plexus.Stack, n int) ([]*plexus.TCPApp, error) {
	if _, err := b.ListenTCP(9000, plexus.TCPAppOptions{}, nil); err != nil {
		return nil, err
	}
	apps := make([]*plexus.TCPApp, 0, n)
	for i := 0; i < n; i++ {
		var app *plexus.TCPApp
		var err error
		a.Spawn("connect", func(t *sim.Task) { app, err = a.ConnectTCP(t, b.Addr(), 9000, plexus.TCPAppOptions{}) })
		top.Sim.Run()
		if err != nil {
			return nil, err
		}
		if app.State().String() != "ESTABLISHED" {
			return nil, fmt.Errorf("connection %d: state %v after handshake", i, app.State())
		}
		apps = append(apps, app)
	}
	return apps, nil
}

func sendOne(t *sim.Task, a any) {
	p := a.(*sendArg)
	_ = p.app.Send(t, p.data)
}

type sendArg struct {
	app  *plexus.TCPApp
	data []byte
}

// isoTCPSeg: one MSS segment sent on an established connection, delivered,
// and acknowledged.
func isoTCPSeg(seed int64, budget time.Duration) (map[string]float64, error) {
	top, a, b, err := pair(seed)
	if err != nil {
		return nil, err
	}
	apps, err := established(top, a, b, 1)
	if err != nil {
		return nil, err
	}
	arg := &sendArg{app: apps[0], data: make([]byte, a.TCP.MSS())}
	fillPattern(arg.data, 0, 0)
	c := timeOp(budget, func() { submit(top, a, sendOne, arg) })
	return map[string]float64{"tcp.seg_ns": c.ns, "tcp.seg_allocs": c.allocs}, nil
}

// isoConnCycle: one connection's whole life — handshake, a 1-byte request,
// the server closing first as an HTTP/1.0 server does, the client's close,
// and the server's TIME-WAIT expiry.
func isoConnCycle(seed int64, budget time.Duration) (map[string]float64, error) {
	top, a, b, err := pair(seed)
	if err != nil {
		return nil, err
	}
	_, err = b.ListenTCP(80, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, _ []byte) { conn.Close(t) },
	}, nil)
	if err != nil {
		return nil, err
	}
	req := []byte{1}
	opts := plexus.TCPAppOptions{
		OnEstablished: func(t *sim.Task, conn *plexus.TCPApp) { _ = conn.Send(t, req) },
		OnPeerFin:     func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}
	connect := func(t *sim.Task, _ any) { _, _ = a.ConnectTCP(t, b.Addr(), 80, opts) }
	c := timeOp(budget, func() { submit(top, a, connect, nil) })
	if n := a.TCP.NumConns() + b.TCP.NumConns(); n > 1 {
		return nil, fmt.Errorf("%d TCBs outlived their connections", n)
	}
	return map[string]float64{"tcp.conn_cycle_ns": c.ns, "tcp.conn_cycle_allocs": c.allocs}, nil
}

// isoDemux: one 1-byte segment delivered and acknowledged between two
// managers that each hold k established TCBs, so both the data segment and
// its ACK pass k connection guards.
func isoDemux(seed int64, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, k := range []int{1, 64, 1024} {
		top, a, b, err := pair(seed)
		if err != nil {
			return nil, err
		}
		apps, err := established(top, a, b, k)
		if err != nil {
			return nil, err
		}
		arg := &sendArg{app: apps[0], data: []byte{1}}
		c := timeOp(budget, func() { submit(top, a, sendOne, arg) })
		out[fmt.Sprintf("tcp.demux_ns.k%d", k)] = c.ns
	}
	return out, nil
}

// isoMbuf: CopyData of a 1460-byte segment (TCP's per-segment receive
// copy) and a prepend/prepend/prepend/adj header cycle on a pooled mbuf.
func isoMbuf(seed int64, budget time.Duration) (map[string]float64, error) {
	pool := mbuf.NewPool()
	seg := make([]byte, 1460)
	fillPattern(seg, uint32(seed), 0)
	m := pool.FromBytes(seg, 64)
	var sink int
	copyCost := timeOp(budget, func() {
		b, _ := m.CopyData(0, 1460)
		sink += len(b)
	})
	payload := seg[:1400]
	prep := timeOp(budget, func() {
		p := pool.FromBytes(payload, 64)
		p, _ = p.Prepend(8)
		p, _ = p.Prepend(20)
		p, _ = p.Prepend(14)
		p.Adj(42)
		p.Free()
	})
	m.Free()
	runtime.KeepAlive(sink)
	return map[string]float64{"mbuf.copydata_ns.1460": copyCost.ns, "mbuf.prepend_adj_ns": prep.ns}, nil
}

// isoChecksum: the internet checksum over 1460 and 32 bytes.
func isoChecksum(seed int64, budget time.Duration) (map[string]float64, error) {
	buf := make([]byte, 1460)
	fillPattern(buf, uint32(seed), 0)
	var sink uint16
	big := timeOp(budget, func() { sink += view.Checksum(buf) })
	small := timeOp(budget, func() { sink += view.Checksum(buf[:32]) })
	runtime.KeepAlive(sink)
	return map[string]float64{"view.cksum_ns.1460": big.ns, "view.cksum_ns.32": small.ns}, nil
}

// isoTx: the send path entered at each layer, on a host alone on a fast
// bus, so every call ends with the frame copied onto a wire nobody else
// listens to: ether.Send, ip.Send, a 32-byte UDP send, and ip.Forward of a
// formed datagram. The ARP lookup is timed against a 200-entry cache.
func isoTx(seed int64, budget time.Duration) (map[string]float64, error) {
	top, err := plexus.NewTopology(seed, nil, []plexus.SegmentSpec{{
		Name: "tx", Model: fastModel(), Subnet: view.IP4{10, 9, 0, 0},
		Hosts: []plexus.HostSpec{spinHost("a")},
	}})
	if err != nil {
		return nil, err
	}
	st := top.Segments[0].Hosts[0]
	peers := make([]view.IP4, 200)
	for i := range peers {
		peers[i] = view.IP4{10, 9, 0, byte(i + 2)}
		st.ARP.AddStatic(peers[i], view.MAC{0x02, 0x00, 0x00, 0x09, 0x00, byte(i + 2)})
	}
	peer := peers[0]
	peerMAC, _ := st.ARP.Lookup(peer)
	task := taskOn(st.Host.CPU)
	pool := st.Host.Pool
	out := map[string]float64{}

	rawPayload := make([]byte, 46)
	out["ether.send_ns"] = timeOp(budget, func() {
		_ = st.Ether.Send(task, peerMAC, 0x88b5, pool.FromBytes(rawPayload, 64))
	}).ns
	udpSeg := make([]byte, view.UDPHdrLen+echoPayload)
	out["ip.send_ns"] = timeOp(budget, func() {
		_ = st.IP.Send(task, st.Addr(), peer, view.IPProtoUDP, pool.FromBytes(udpSeg, 64))
	}).ns
	app, err := st.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, echoPayload)
	fillMessage(msg, 0, 1)
	out["udp.send_ns.32"] = timeOp(budget, func() { _ = app.Send(task, peer, 7, msg) }).ns
	dgram := ipv4UDP(view.IP4{10, 0, 1, 1}, peer, 40000, 7, msg)
	out["ip.forward_ns"] = timeOp(budget, func() { _ = st.IP.Forward(task, pool.FromBytes(dgram, 64)) }).ns
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(peers))
	i := 0
	var hits int
	out["arp.lookup_ns.200"] = timeOp(budget, func() {
		if _, ok := st.ARP.Lookup(peers[order[i%len(order)]]); ok {
			hits++
		}
		i++
	}).ns
	if hits == 0 {
		return nil, fmt.Errorf("ARP lookups missed")
	}
	return out, nil
}

// ipv4UDP formats an IPv4/UDP datagram.
func ipv4UDP(src, dst view.IP4, sport, dport uint16, payload []byte) []byte {
	b := make([]byte, view.IPv4MinHdrLen+view.UDPHdrLen+len(payload))
	b[0] = 0x45
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	ipv, err := view.IPv4(b)
	if err != nil {
		panic(err)
	}
	ipv.SetTTL(64)
	ipv.SetProto(view.IPProtoUDP)
	ipv.SetSrc(src)
	ipv.SetDst(dst)
	ipv.ComputeChecksum()
	u := b[view.IPv4MinHdrLen:]
	binary.BigEndian.PutUint16(u[0:], sport)
	binary.BigEndian.PutUint16(u[2:], dport)
	binary.BigEndian.PutUint16(u[4:], uint16(view.UDPHdrLen+len(payload)))
	copy(u[view.UDPHdrLen:], payload)
	return b
}

// isoSwitch: one frame from host 0 to host 1 through a switch with p
// ports, minus the same frame across a two-host bus, so the difference is
// the switch's ingress, MAC lookup and egress queueing. The rigs are timed
// in interleaved batches and the per-batch differences' median reported,
// so drift in the host's speed does not land on one side.
func isoSwitch(seed int64, budget time.Duration) (map[string]float64, error) {
	rig := func(hosts int, switched bool) (func(), error) {
		spec := plexus.SegmentSpec{Name: "sw", Model: fastModel(), Switched: switched, Subnet: view.IP4{10, 9, 0, 0}}
		for i := 0; i < hosts; i++ {
			spec.Hosts = append(spec.Hosts, spinHost(fmt.Sprintf("h%03d", i)))
		}
		top, err := plexus.NewTopology(seed, nil, []plexus.SegmentSpec{spec})
		if err != nil {
			return nil, err
		}
		hs := top.Segments[0].Hosts
		// A frame of an EtherType nobody handles: the receiver's NIC takes
		// the interrupt and the dispatcher finds no handler.
		send := func(from, to *plexus.Stack) func(*sim.Task, any) {
			frame := make([]byte, 64)
			eth, _ := view.Ethernet(frame)
			eth.SetDst(to.NIC.MAC())
			eth.SetSrc(from.NIC.MAC())
			eth.SetEtherType(0x88b5)
			return func(t *sim.Task, _ any) { _ = from.NIC.Transmit(t, from.Host.Pool.FromBytes(frame, 0)) }
		}
		// Teach the switch both stations first.
		submit(top, hs[1], send(hs[1], hs[0]), nil)
		fwd := send(hs[0], hs[1])
		before := hs[1].NIC.Stats().RxFrames
		submit(top, hs[0], fwd, nil)
		if hs[1].NIC.Stats().RxFrames == before {
			return nil, fmt.Errorf("frames were not delivered")
		}
		return func() { submit(top, hs[0], fwd, nil) }, nil
	}
	bus, err := rig(2, false)
	if err != nil {
		return nil, err
	}
	ports := []int{3, 200}
	sws := make([]func(), len(ports))
	for i, p := range ports {
		if sws[i], err = rig(p, true); err != nil {
			return nil, err
		}
	}
	batch := func(op func(), n int) float64 {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	n := 1
	for batch(bus, n)*float64(n) < float64(budget/32) && n < 1<<20 {
		n *= 2
	}
	diffs := make([][]float64, len(ports))
	for r := 0; r < 7; r++ {
		base := batch(bus, n)
		for i, op := range sws {
			diffs[i] = append(diffs[i], batch(op, n)-base)
		}
	}
	out := map[string]float64{}
	for i, p := range ports {
		out[fmt.Sprintf("netdev.switch_fwd_ns.p%d", p)] = median(diffs[i])
	}
	return out, nil
}

// isoFabric: the fabric-vip pipeline executed on a request to the VIP and
// on the reply to it, alternately; and one ACL match expression evaluated
// by the native and the interpreted filter backends.
func isoFabric(seed int64, budget time.Duration) (map[string]float64, error) {
	pool := []view.IP4{{10, 0, 2, 1}, {10, 0, 2, 2}, {10, 0, 2, 3}, {10, 0, 2, 4}}
	pl, err := fabricPipeline(pool)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, fabricPayload)
	fillMessage(msg, 0, 1)
	req := ipv4UDP(view.IP4{10, 0, 1, 1}, fabricVIP, 40000, 7, msg)
	scratch := make([]byte, len(req))
	pkt := fabric.Packet{}
	exec := func(b []byte) (fabric.Verdict, []byte) {
		copy(scratch, b)
		pkt = fabric.Packet{Buf: scratch, Base: filter.BaseIP, Writable: true, OutPort: -1}
		return pl.Exec(nil, &pkt), scratch
	}
	// Build the reply from the translated request: server → NAT address.
	v, out := exec(req)
	if v == fabric.Drop {
		return nil, fmt.Errorf("pipeline dropped the VIP request")
	}
	fwd, _ := view.IPv4(out)
	u := out[view.IPv4MinHdrLen:]
	reply := ipv4UDP(fwd.Dst(), fwd.Src(), binary.BigEndian.Uint16(u[2:]), binary.BigEndian.Uint16(u[0:]), msg)
	if v, _ := exec(reply); v == fabric.Drop {
		return nil, fmt.Errorf("pipeline dropped the reply")
	}
	i := 0
	chain := timeOp(budget, func() {
		if i&1 == 0 {
			exec(req)
		} else {
			exec(reply)
		}
		i++
	})
	const expr = "ip.dst == 10.0.9.9 && udp.dport == 7"
	native, err := filter.Parse(expr, filter.BaseIP)
	if err != nil {
		return nil, err
	}
	interp, err := filter.CompileInterpreted(expr, filter.BaseIP)
	if err != nil {
		return nil, err
	}
	task := taskOn(sim.NewCPU(sim.New(seed), "filter"))
	var hits int
	nat := timeOp(budget, func() {
		if native.MatchBytes(req) {
			hits++
		}
	})
	vm := timeOp(budget, func() {
		if interp.RunBytes(task, req) {
			hits++
		}
	})
	if hits == 0 {
		return nil, fmt.Errorf("filter never matched")
	}
	return map[string]float64{
		"fabric.chain_ns":        chain.ns,
		"filter.match_ns.native": nat.ns,
		"filter.match_ns.interp": vm.ns,
	}, nil
}
