package main

import (
	"bytes"
	"fmt"
	"strconv"

	"plexus/internal/audit"
	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/fault"
	"plexus/internal/filter"
	"plexus/internal/httpx"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// The four workloads. Each one's why, the layers it loads and bypasses, and
// the per-layer metrics expected to move its end-to-end numbers are written
// out in rationale.json beside this file.
var workloads = []*workload{
	{
		name:   "tcp-bulk",
		build:  buildTCPBulk,
		warmup: 1 * sim.Second,
		chunk:  500 * sim.Millisecond,
		chunks: 12,
	},
	{
		name:       "udp-echo-10k",
		build:      buildUDPEcho10k,
		warmup:     100 * sim.Millisecond,
		chunk:      100 * sim.Millisecond,
		chunks:     16,
		workers:    2,
		gcOffBuild: true,
	},
	{
		name:   "fabric-vip",
		build:  buildFabricVIP,
		scaled: true,
		warmup: 200 * sim.Millisecond,
		chunk:  2 * sim.Second,
		chunks: 4,
	},
	{
		name:   "http-churn",
		build:  buildHTTPChurn,
		warmup: 500 * sim.Millisecond,
		chunk:  500 * sim.Millisecond,
		chunks: 6,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func spinHost(name string) plexus.HostSpec {
	return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// injectAt is the operation whose payload an injected corruption damages.
const injectAt = 20

// ---------------------------------------------------------------------------
// tcp-bulk

const (
	bulkChunk = 64 << 10
	// bulkBacklog is the send-buffer level each sender keeps queued.
	bulkBacklog = 4 * bulkChunk
	// bulkTopUp is the sender's top-up period.
	bulkTopUp = 2 * sim.Millisecond
	// bulkDeadline bounds a chunk's simulated write-to-delivery time.
	bulkDeadline = 2 * sim.Second
	bulkRing     = 256
	bulkPort     = 5001
)

// bulkFlow is one backlogged sender plus its receiver-side verifier.
type bulkFlow struct {
	st      *plexus.Stack
	app     *plexus.TCPApp
	flow    uint32
	log     *opLog
	inject  bool
	buf     []byte
	written uint64
	writeAt [bulkRing]sim.Time
	// Receiver side: bytes verified so far, and whether the chunk being
	// received has shown a mismatch.
	received   uint64
	chunkWrong bool
}

// bulkTick is the sender's top-up timer; package-level so arming it never
// allocates.
func bulkTick(a any) {
	f := a.(*bulkFlow)
	f.st.Host.CPU.SubmitAtArg(f.st.Host.Sim.Now(), sim.PrioKernel, "bulk-topup", bulkTopUpTask, f)
}

func bulkTopUpTask(t *sim.Task, a any) {
	f := a.(*bulkFlow)
	for f.app.Conn().SendBufBytes() < bulkBacklog {
		fillPattern(f.buf, f.flow, f.written)
		chunk := f.written / bulkChunk
		if f.inject && chunk == injectAt {
			f.buf[100] ^= 0xff
		}
		if err := f.app.Send(t, f.buf); err != nil {
			break
		}
		f.writeAt[chunk%bulkRing] = t.Now()
		f.written += bulkChunk
	}
	f.st.Host.Sim.AfterArg(bulkTopUp, "bulk-topup", bulkTick, f)
}

// recv verifies delivered stream bytes against the generator and closes
// every 64 KB chunk as one operation.
func (f *bulkFlow) recv(t *sim.Task, data []byte) {
	for len(data) > 0 {
		room := bulkChunk - int(f.received%bulkChunk)
		n := min(room, len(data))
		if !matchPattern(data[:n], f.flow, f.received) {
			f.chunkWrong = true
		}
		f.received += uint64(n)
		data = data[n:]
		if f.received%bulkChunk == 0 {
			chunk := f.received/bulkChunk - 1
			lat := t.Now() - f.writeAt[chunk%bulkRing]
			switch {
			case f.chunkWrong:
				f.log.bad()
			case lat > bulkDeadline:
				f.log.fail()
			default:
				f.log.ok(lat, bulkChunk)
			}
			f.chunkWrong = false
		}
	}
}

func buildTCPBulk(seed int64, inject string) (*episode, error) {
	model := netdev.EthernetModel()
	model.BitsPerSec = 100_000_000
	model.PropDelay = 50 * sim.Microsecond
	model.MaxBacklog = sim.Second
	spec := func(name, cc string) plexus.HostSpec {
		h := spinHost(name)
		h.CC = cc
		h.MinRTO = 200 * sim.Millisecond
		return h
	}
	top, err := plexus.NewTopology(seed, nil, []plexus.SegmentSpec{{
		Name: "bulk", Model: model, Switched: true,
		Switch: netdev.SwitchConfig{
			QueueFrames: 25,
			RED:         netdev.REDConfig{MinFrames: 6, MaxFrames: 15, MaxProb: 0.2},
		},
		Subnet: view.IP4{10, 0, 1, 0},
		Hosts:  []plexus.HostSpec{spec("flowA", "newreno"), spec("flowB", "cubic"), spec("server", "")},
	}})
	if err != nil {
		return nil, err
	}
	top.PrimeARP()
	seg := top.Segments[0]
	srv := seg.Hosts[2]
	log := &opLog{}
	ep := &episode{sims: []*sim.Sim{top.Sim}, stacks: seg.Hosts, switches: []*netdev.Switch{seg.Switch},
		server: srv, logs: []*opLog{log}}
	for _, h := range seg.Hosts {
		ck := audit.NewChecker(nil)
		h.TCP.SetAuditSink(ck)
		ep.checkers = append(ep.checkers, ck)
	}
	// Bernoulli loss on every cable (so data and ACKs are both lost) and
	// seeded sub-frame jitter on the client cables, which keeps the two
	// AIMD flows from phase-locking.
	for i, cable := range seg.Cables {
		in := fault.Attach(top.Sim, cable).Lose(fault.Bernoulli{P: 0.005})
		if i < 2 {
			in.Delay(fault.Jitter{P: 1, Max: 30 * sim.Microsecond})
		}
		ep.injectors = append(ep.injectors, in)
	}
	flows := []*bulkFlow{
		{st: seg.Hosts[0], flow: 1, log: log, buf: make([]byte, bulkChunk), inject: inject == "payload"},
		{st: seg.Hosts[1], flow: 2, log: log, buf: make([]byte, bulkChunk)},
	}
	_, err = srv.ListenTCP(bulkPort, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
			addr, _ := conn.Conn().RemoteAddr()
			for _, f := range flows {
				if f.st.Addr() == addr {
					f.recv(t, data)
				}
			}
		},
	}, nil)
	if err != nil {
		return nil, err
	}
	// The seed staggers the second flow's start by up to 10 ms.
	stagger := sim.Time(top.Sim.Rand().Int63n(int64(10 * sim.Millisecond)))
	for i, f := range flows {
		f.st.SpawnAt(sim.Millisecond+sim.Time(i)*stagger, "bulk-connect", func(t *sim.Task) {
			f.app, _ = f.st.ConnectTCP(t, srv.Addr(), bulkPort, plexus.TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, _ *plexus.TCPApp) { bulkTopUpTask(t2, f) },
			})
		})
	}
	return ep, nil
}

// ---------------------------------------------------------------------------
// Paced UDP echo clients (udp-echo-10k and fabric-vip).

// echoClient is an open-loop client: one request every interval. A reply
// must match the request byte for byte and arrive before the next send;
// anything else fails the operation.
type echoClient struct {
	st       *plexus.Stack
	app      *plexus.UDPApp
	dst      view.IP4
	interval sim.Time
	flow     uint32
	log      *opLog
	inject   bool

	seq         uint64
	sentAt      sim.Time
	outstanding bool
	msg         []byte
}

func echoTick(a any) {
	c := a.(*echoClient)
	c.st.Host.CPU.SubmitAtArg(c.st.Host.Sim.Now(), sim.PrioKernel, "paced-echo", echoSend, c)
}

func echoSend(t *sim.Task, a any) {
	c := a.(*echoClient)
	if c.outstanding {
		c.log.fail() // unanswered within its interval
	}
	c.seq++
	fillMessage(c.msg, c.flow, c.seq)
	if c.inject && c.seq == injectAt {
		c.msg[len(c.msg)-1] ^= 0xff
	}
	c.sentAt = t.Now()
	c.outstanding = true
	// A send that fails leaves the request unanswered, which the next
	// send counts as a failed operation.
	_ = c.app.Send(t, c.dst, 7, c.msg)
	c.st.Host.Sim.AfterArg(c.interval, "paced-tick", echoTick, c)
}

func (c *echoClient) onReply(t *sim.Task, data []byte, _ view.IP4, _ uint16) {
	t.Charge(c.st.Host.Costs.AppHandler)
	if !c.outstanding || len(data) < 8 || be64(data) != c.seq {
		return // a stale reply to an operation already counted failed
	}
	c.outstanding = false
	if !matchMessage(data, c.flow, c.seq, len(c.msg)) {
		c.log.bad()
		return
	}
	c.log.ok(t.Now()-c.sentAt, len(data))
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// startEcho opens client c's endpoint and schedules its first send at
// offset.
func startEcho(c *echoClient, size int, offset sim.Time) error {
	c.msg = make([]byte, size)
	var err error
	c.app, err = c.st.OpenUDP(plexus.UDPAppOptions{}, c.onReply)
	if err != nil {
		return err
	}
	c.st.Host.Sim.AtArg(offset, "paced-tick", echoTick, c)
	return nil
}

// serveEcho opens the UDP echo service on port 7.
func serveEcho(st *plexus.Stack) error {
	var echo *plexus.UDPApp
	var err error
	echo, err = st.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, port uint16) {
		t.Charge(st.Host.Costs.AppHandler)
		_ = echo.Send(t, src, port, data)
	})
	return err
}

// ---------------------------------------------------------------------------
// udp-echo-10k: the -exp scale 10k-host cell shape.

const (
	echoSegments     = 50
	echoSegmentHosts = 200
	echoPayload      = 32
	echoLocalEvery   = 50 * sim.Millisecond
	echoCrossEvery   = 100 * sim.Millisecond
)

func buildUDPEcho10k(seed int64, inject string) (*episode, error) {
	uplink := netdev.EthernetModel()
	uplink.Name = "ethernet-uplink"
	uplink.PropDelay = 10 * sim.Millisecond
	segs := make([]plexus.SegmentSpec, echoSegments)
	for i := range segs {
		segs[i] = plexus.SegmentSpec{
			Name: fmt.Sprintf("seg%03d", i), Model: netdev.EthernetModel(), Switched: true,
			Uplink: uplink, Subnet: view.IP4{10, byte((i + 1) >> 8), byte(i + 1), 0},
		}
		for h := 0; h < echoSegmentHosts; h++ {
			segs[i].Hosts = append(segs[i].Hosts, spinHost(fmt.Sprintf("h%03d-%03d", i, h)))
		}
	}
	gw := spinHost("gw")
	top, err := plexus.NewShardedTopology(seed, &gw, segs)
	if err != nil {
		return nil, err
	}
	top.PrimeARPSparse()
	ep := &episode{sims: top.Sims, engine: top.Engine, logs: []*opLog{{}}}
	ep.stacks = append(ep.stacks, top.Gateway.Ifaces...)
	for si, seg := range top.Segments {
		log := &opLog{}
		ep.logs = append(ep.logs, log)
		ep.stacks = append(ep.stacks, seg.Hosts...)
		ep.switches = append(ep.switches, seg.Switch)
		if err := serveEcho(seg.Hosts[0]); err != nil {
			return nil, err
		}
		// The seed drives client stagger: each local client starts at a
		// uniformly drawn offset within the pacing interval.
		rng := top.Sims[si+1].Rand()
		remote := top.Segments[(si+1)%len(top.Segments)].Hosts[0]
		for hi, cl := range seg.Hosts[1:] {
			c := &echoClient{st: cl, dst: seg.Hosts[0].Addr(), interval: echoLocalEvery,
				flow: uint32(si*echoSegmentHosts + hi), log: log, inject: inject == "payload" && si == 0 && hi == 1}
			if hi == 0 {
				// Host 1 of every segment echoes across the gateway off
				// the next segment's server.
				c.dst, c.interval = remote.Addr(), echoCrossEvery
			}
			if err := startEcho(c, echoPayload, sim.Time(rng.Int63n(int64(c.interval)))); err != nil {
				return nil, err
			}
		}
	}
	return ep, nil
}

// ---------------------------------------------------------------------------
// fabric-vip: ACL → LB → NAT → ECMP on the gateway in front of a VIP.

const (
	fabricClients  = 16
	fabricServers  = 4
	fabricRate     = 200 // requests per second per client
	fabricPayload  = 64
	fabricACLDenys = 62 // deny entries ahead of the two permits: 64 in all
)

var (
	fabricVIP     = view.IP4{10, 0, 9, 9}
	fabricNATAddr = view.IP4{10, 0, 2, 200}
)

// fabricPipeline builds the gateway's service chain for the given server
// pool. The ACL's deny entries never match this workload's traffic and sit
// ahead of its permits, so every packet evaluates all 64 entries.
func fabricPipeline(pool []view.IP4) (*fabric.Pipeline, error) {
	var entries []fabric.ACLEntry
	for i := 0; i < fabricACLDenys; i++ {
		entries = append(entries, fabric.ACLEntry{
			Name:  fmt.Sprintf("deny-%02d", i),
			Match: fmt.Sprintf("ip.src == 192.168.%d.%d && udp.dport == %d", i/8, i%8+1, 1000+i),
		})
	}
	entries = append(entries,
		fabric.ACLEntry{Name: "permit-vip", Match: "ip.dst == 10.0.9.9 && udp.dport == 7", Permit: true},
		fabric.ACLEntry{Name: "permit-replies", Match: "ip.src in 10.0.2.0/24 && udp.sport == 7", Permit: true})
	acl, err := fabric.NewACL("acl", filter.BaseIP, entries, false)
	if err != nil {
		return nil, err
	}
	_, lbTable, err := fabric.NewLB("lb", filter.BaseIP, fabric.LBConfig{
		VIP: fabricVIP, Port: 7, Servers: pool, PoolCIDR: "10.0.2.0/24",
	})
	if err != nil {
		return nil, err
	}
	_, natTable, err := fabric.NewNAT("nat", filter.BaseIP, fabric.NATConfig{
		Addr: fabricNATAddr, InsideCIDR: "10.0.1.0/24",
	})
	if err != nil {
		return nil, err
	}
	_, ecmpRule, err := fabric.NewECMP("ecmp", "", filter.BaseIP, 2)
	if err != nil {
		return nil, err
	}
	return fabric.NewPipeline("vip", filter.BaseIP, event.QuarantinePolicy{Threshold: 3}).
		Add(acl).Add(lbTable).Add(natTable).Add(fabric.NewTable("ecmp").Add(ecmpRule)), nil
}

func buildFabricVIP(seed int64, inject string) (*episode, error) {
	clients := plexus.SegmentSpec{Name: "lan0", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 1, 0}}
	for i := 0; i < fabricClients; i++ {
		clients.Hosts = append(clients.Hosts, spinHost(fmt.Sprintf("c%02d", i)))
	}
	rack := plexus.SegmentSpec{Name: "lan1", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 2, 0}, GatewayLinks: 2}
	for i := 0; i < fabricServers; i++ {
		rack.Hosts = append(rack.Hosts, spinHost(fmt.Sprintf("s%02d", i)))
	}
	gw := spinHost("gw")
	top, err := plexus.NewTopology(seed, &gw, []plexus.SegmentSpec{clients, rack})
	if err != nil {
		return nil, err
	}
	top.PrimeARP()
	servers := top.Segments[1].Hosts
	pool := make([]view.IP4, len(servers))
	for i, s := range servers {
		pool[i] = s.Addr()
	}
	pl, err := fabricPipeline(pool)
	if err != nil {
		return nil, err
	}
	top.Gateway.InstallPipeline(pl)
	log := &opLog{}
	ep := &episode{sims: []*sim.Sim{top.Sim}, pipeline: pl, logs: []*opLog{log}}
	for _, seg := range top.Segments {
		ep.stacks = append(ep.stacks, seg.Hosts...)
		ep.switches = append(ep.switches, seg.Switch)
	}
	ep.stacks = append(ep.stacks, top.Gateway.Ifaces...)
	for _, s := range servers {
		if err := serveEcho(s); err != nil {
			return nil, err
		}
		// The NAT address is on no wire: servers reach it through the
		// gateway's rack-side interface.
		s.ARP.AddStatic(fabricNATAddr, top.Segments[1].GW.NIC.MAC())
	}
	interval := sim.Second / fabricRate
	rng := top.Sim.Rand()
	for i, cl := range top.Segments[0].Hosts {
		c := &echoClient{st: cl, dst: fabricVIP, interval: interval, flow: uint32(i), log: log,
			inject: inject == "payload" && i == 0}
		if err := startEcho(c, fabricPayload, sim.Time(rng.Int63n(int64(interval)))); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// ---------------------------------------------------------------------------
// http-churn: closed-loop HTTP/1.0, one connection per GET.

const (
	httpClients  = 32
	httpBody     = 1024
	httpDeadline = 2 * sim.Second
)

// httpClient issues GET /<flow> back to back, each on a fresh connection,
// and verifies the 1 KB body generated for its flow.
type httpClient struct {
	st      *plexus.Stack
	server  view.IP4
	flow    uint32
	path    string
	log     *opLog
	started sim.Time
	done    func(t *sim.Task, r httpx.Result, err error)
}

func (c *httpClient) issue(t *sim.Task) {
	c.started = t.Now()
	if err := httpx.Get(t, c.st, c.server, 80, c.path, c.done); err != nil {
		c.log.fail()
	}
}

func (c *httpClient) finish(t *sim.Task, r httpx.Result, err error) {
	lat := t.Now() - c.started
	switch {
	case err != nil || r.Status != 200:
		c.log.fail()
	case len(r.Body) != httpBody || !matchPattern(r.Body, c.flow, 0):
		c.log.bad()
	case lat > httpDeadline:
		c.log.fail()
	default:
		c.log.ok(lat, len(r.Body))
	}
	c.issue(t)
}

func buildHTTPChurn(seed int64, inject string) (*episode, error) {
	seg := plexus.SegmentSpec{Name: "lan", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 1, 0}, Hosts: []plexus.HostSpec{spinHost("server")}}
	for i := 0; i < httpClients; i++ {
		seg.Hosts = append(seg.Hosts, spinHost(fmt.Sprintf("c%02d", i)))
	}
	top, err := plexus.NewTopology(seed, nil, []plexus.SegmentSpec{seg})
	if err != nil {
		return nil, err
	}
	top.PrimeARP()
	hosts := top.Segments[0].Hosts
	srv := hosts[0]
	log := &opLog{}
	ep := &episode{sims: []*sim.Sim{top.Sim}, stacks: hosts, switches: []*netdev.Switch{top.Segments[0].Switch},
		server: srv, logs: []*opLog{log}}
	for _, h := range hosts {
		ck := audit.NewChecker(nil)
		h.TCP.SetAuditSink(ck)
		ep.checkers = append(ep.checkers, ck)
	}
	bodies := make([][]byte, httpClients)
	for i := range bodies {
		bodies[i] = make([]byte, httpBody)
		fillPattern(bodies[i], uint32(i), 0)
	}
	served := 0
	_, err = httpx.Serve(srv, 80, func(t *sim.Task, req *httpx.Request) httpx.Response {
		i, err := strconv.Atoi(req.Path[1:])
		if err != nil || i < 0 || i >= httpClients {
			return httpx.Response{Status: 404}
		}
		served++
		if inject == "payload" && served == injectAt {
			bad := bytes.Clone(bodies[i])
			bad[7] ^= 0xff
			return httpx.Response{Status: 200, Body: bad}
		}
		return httpx.Response{Status: 200, Body: bodies[i]}
	})
	if err != nil {
		return nil, err
	}
	// The seed staggers client starts across the first 10 ms.
	rng := top.Sim.Rand()
	for i, cl := range hosts[1:] {
		c := &httpClient{st: cl, server: srv.Addr(), flow: uint32(i), path: "/" + strconv.Itoa(i), log: log}
		c.done = c.finish
		cl.SpawnAt(sim.Time(rng.Int63n(int64(10*sim.Millisecond))), "http-start", c.issue)
	}
	return ep, nil
}
