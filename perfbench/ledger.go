package main

import (
	"math"

	"plexus/internal/fabric"
	"plexus/internal/sim"
)

// ledgerShape is what the ledger needs to know about a workload beyond its
// traced counts: the typical TCP segment payload, and the port count of its
// switches.
var ledgerShape = map[string]struct {
	segBytes    float64
	switchPorts float64
}{
	"tcp-bulk":     {1460, 3},
	"udp-echo-10k": {32, 201},
	"fabric-vip":   {64, 17},
	"http-churn":   {32, 33},
}

// interp evaluates the piecewise-linear curve through (xs[i], ys[i]) at x,
// extending the end segments beyond the measured range.
func interp(xs, ys []float64, x float64) float64 {
	i := 1
	for i < len(xs)-1 && x > xs[i] {
		i++
	}
	x0, x1, y0, y1 := xs[i-1], xs[i], ys[i-1], ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// window sums the counters that moved during a phase's measured windows.
func (p *phase) moved() (d counters, frames float64) {
	for _, r := range p.results {
		d.events += r.after.events - r.before.events
		d.frames += r.after.frames - r.before.frames
		d.portDrops += r.after.portDrops - r.before.portDrops
		d.faultLost += r.after.faultLost - r.before.faultLost
		d.tcpSegsOut += r.after.tcpSegsOut - r.before.tcpSegsOut
		d.tcpRexmits += r.after.tcpRexmits - r.before.tcpRexmits
		d.pipePackets += r.after.pipePackets - r.before.pipePackets
		d.ruleHits += r.after.ruleHits - r.before.ruleHits
		d.swForwarded += r.after.swForwarded - r.before.swForwarded
	}
	last := p.results[len(p.results)-1]
	d.poolHighWater = last.after.poolHighWater
	// The live-TCB count a window's segments met, on average.
	d.conns = (last.before.conns + last.after.conns) / 2
	return d, float64(d.frames)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the traced run's metrics: runtime and engine figures
// from the untraced phase, counts and self-time shares from the traced
// phase, the isolation drivers' costs, and the ledger.
func perLayer(w *workload, plain, traced *phase, tot sink, iso map[string]float64) *result {
	_, _, _, _, ops := plain.sums()
	res := &result{attempted: ops.attempted, failed: ops.failed, digest: plain.results[0].digest}
	nsPlain := plain.nsPerPkt()
	nsTraced := traced.nsPerPkt()
	// The ledger compares unscaled CPU costs on both sides: the isolation
	// drivers run in this process at the machine's current speed.
	var cpuChunks []float64
	for _, r := range plain.results {
		cpuChunks = append(cpuChunks, r.perChunkCPU...)
	}
	nsCPU := median(cpuChunks)
	pd, pf := plain.moved()
	td, tf := traced.moved()
	per := func(n uint64) float64 { return ratio(float64(n), tf) }

	// Runtime and engine, from the untraced phase.
	var gcCPU, totCPU, wall float64
	var par, busy float64
	for _, r := range plain.results {
		gcCPU += r.gcCPU
		totCPU += r.totCPU
		wall += r.wall.Seconds()
		par += r.parallelWall.Seconds()
		busy += r.busyWall.Seconds()
	}
	var rounds uint64
	for _, r := range plain.results {
		rounds += r.rounds
	}
	workers := float64(max(w.workers, 1))
	barrier := 0.0
	if par > 0 {
		barrier = math.Max(0, 1-busy/(workers*par))
	}
	_, frames, mallocs, bytes, _ := plain.sums()
	res.add("runtime.allocs_per_pkt", ratio(float64(mallocs), float64(frames)), "allocs/pkt")
	res.add("runtime.bytes_per_pkt", ratio(float64(bytes), float64(frames)), "B/pkt")
	res.add("gc.cpu_frac", ratio(gcCPU, totCPU), "ratio")
	res.add("sim.events_per_pkt", ratio(float64(pd.events), pf), "1/pkt")
	res.add("sim.engine_window_ns", ratio(par*1e9, float64(rounds)), "ns")
	res.add("sim.barrier_wait_frac", barrier, "ratio")

	// Simulated-behaviour counts, per episode: a speed-only change leaves
	// them exactly as they are.
	first := plain.results[0]
	res.add("tcp.rexmit_ratio", ratio(float64(first.after.tcpRexmits-first.before.tcpRexmits),
		float64(first.after.tcpSegsOut-first.before.tcpSegsOut)), "ratio")
	res.add("netdev.port_drops", float64(first.after.portDrops-first.before.portDrops), "count")
	res.add("fault.lost", float64(first.after.faultLost-first.before.faultLost), "count")
	res.add("tcp.conns_live", float64(first.after.conns), "count")
	res.add("mbuf.inuse_hwm", float64(first.after.poolHighWater), "count")

	// Counts from the traced phase.
	raises := tot.hops[hRaise]
	guards := float64(tot.samples[sim.ProfDispatch]) - float64(tot.samples[sim.ProfHandler])
	guardsPerRaise := ratio(guards, float64(raises))
	res.add("event.raises_per_pkt", per(raises), "1/pkt")
	res.add("event.guards_per_raise", guardsPerRaise, "count")
	evals := (float64(tot.dur[sim.ProfFabric]) - float64(fabric.DefaultActionCost)*float64(td.ruleHits)) /
		float64(fabric.DefaultMatchCost)
	res.add("fabric.rule_evals_per_pkt", ratio(math.Max(0, evals), tf), "1/pkt")
	var selfTotal int64
	for _, v := range tot.self {
		selfTotal += v
	}
	var samples uint64
	for _, v := range tot.samples {
		samples += v
	}
	for l := 0; l < lOther; l++ {
		res.add("self."+layerNames[l], ratio(float64(tot.self[l]), float64(selfTotal)), "ratio")
		res.add("hops."+layerNames[l], per(tot.perLay[l]), "1/pkt")
	}
	res.add("trace.samples_per_pkt", per(samples), "1/pkt")
	res.add("trace.overhead", ratio(nsTraced, nsPlain), "ratio")

	// Isolation drivers.
	for _, name := range isoMetricNames {
		unit := "ns"
		if len(name) > 7 && name[len(name)-7:] == "_allocs" {
			unit = "allocs"
		}
		res.add(name, iso[name], unit)
	}

	// The ledger: isolated cost × traced count per delivered frame, layer by
	// layer, against the untraced ns_per_pkt. Nested send paths are split
	// by difference, so each layer is counted once.
	shape := ledgerShape[w.name]
	cksum := interp([]float64{32, 1460}, []float64{iso["view.cksum_ns.32"], iso["view.cksum_ns.1460"]}, shape.segBytes)
	raiseCost := interp([]float64{1, 8, 64}, []float64{iso["event.raise_ns.g1"], iso["event.raise_ns.g8"], iso["event.raise_ns.g64"]},
		math.Max(1, guardsPerRaise))
	demux := interp([]float64{1, 64, 1024}, []float64{iso["tcp.demux_ns.k1"], iso["tcp.demux_ns.k64"], iso["tcp.demux_ns.k1024"]},
		math.Max(1, float64(td.conns)))
	ether := iso["ether.send_ns"]
	terms := []metric{
		{"ledger.sim_ns", ratio(float64(td.events), tf) * iso["sim.push_pop_ns"], "ns"},
		{"ledger.event_ns", per(raises) * raiseCost, "ns"},
		{"ledger.tx_ns", per(tot.hops[hEtherSend])*ether +
			per(tot.hops[hIPSend])*math.Max(0, iso["ip.send_ns"]-ether) +
			per(tot.hops[hIPForward])*math.Max(0, iso["ip.forward_ns"]-ether) +
			per(tot.hops[hUDPSend])*math.Max(0, iso["udp.send_ns.32"]-iso["ip.send_ns"]), "ns"},
		{"ledger.rx_ns", per(tot.hops[hWireRx])*iso["mbuf.prepend_adj_ns"] +
			per(tot.hops[hIPRecv]+tot.hops[hUDPRecv])*iso["view.cksum_ns.32"], "ns"},
		{"ledger.tcp_ns", per(tot.hops[hTCPSend])*(cksum+iso["mbuf.prepend_adj_ns"]) +
			per(tot.hops[hTCPRecv])*(cksum+iso["mbuf.copydata_ns.1460"]*shape.segBytes/1460) +
			// The demux driver's segment and its ACK each pass k guards;
			// only the server holds many TCBs.
			per(tot.serverRecv)*math.Max(0, demux-iso["tcp.demux_ns.k1"])/2, "ns"},
		{"ledger.switch_ns", per(td.swForwarded) * interp([]float64{3, 200},
			[]float64{iso["netdev.switch_fwd_ns.p3"], iso["netdev.switch_fwd_ns.p200"]}, shape.switchPorts), "ns"},
		{"ledger.fabric_ns", per(td.pipePackets) * iso["fabric.chain_ns"], "ns"},
	}
	predicted := 0.0
	for _, t := range terms {
		res.metrics = append(res.metrics, t)
		predicted += t.value
	}
	res.add("ledger.predicted_ns", predicted, "ns")
	res.add("ledger.residual", ratio(nsCPU-predicted, nsCPU), "ratio")
	res.add("ledger.gc_share", ratio(gcCPU, wall*workers), "ratio")
	res.add("ledger.barrier_share", barrier, "ratio")
	res.notes = append(res.notes, metric{"cpu_ns_per_pkt", nsCPU, "ns"},
		metric{"ns_per_pkt", nsPlain, "ns"}, metric{"ns_per_pkt.traced", nsTraced, "ns"})
	return res
}

// isoMetricNames lists every isolation-driver metric, in report order.
var isoMetricNames = []string{
	"sim.push_pop_ns", "sim.timer_rearm_ns", "sim.timer_rearm_allocs",
	"event.raise_ns.g1", "event.raise_ns.g8", "event.raise_ns.g64",
	"tcp.seg_ns", "tcp.seg_allocs", "tcp.conn_cycle_ns", "tcp.conn_cycle_allocs",
	"tcp.demux_ns.k1", "tcp.demux_ns.k64", "tcp.demux_ns.k1024",
	"mbuf.copydata_ns.1460", "mbuf.prepend_adj_ns", "view.cksum_ns.1460", "view.cksum_ns.32",
	"ether.send_ns", "arp.lookup_ns.200", "ip.send_ns", "udp.send_ns.32", "ip.forward_ns",
	"netdev.switch_fwd_ns.p3", "netdev.switch_fwd_ns.p200",
	"fabric.chain_ns", "filter.match_ns.native", "filter.match_ns.interp",
}
