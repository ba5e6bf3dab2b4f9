// Command perfbench measures what the plexus simulator costs on the host:
// CPU nanoseconds, heap allocations and heap bytes per frame delivered to a
// host NIC, set-up time, and live heap, on four workloads that load
// different layers of the stack. A second, traced mode reports
// per-layer numbers: self-time shares and hop counts from a sim.Metrics
// sink, single-call costs from isolation drivers, and a ledger reconciling
// the two against the end-to-end cost.
//
// Usage:
//
//	perfbench --workload tcp-bulk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose simulated outputs
// are wrong prints no numbers and exits with status 1.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// record is digests.json: the seed a run uses by default, a held-out seed
// kept for validating later claims, and the sim_digest each workload must
// produce at both.
type record struct {
	DefaultSeed int64                        `json:"default_seed"`
	HeldOutSeed int64                        `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	inject   string
	spans    string
	digests  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var rec record
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: digests.json: %v\n", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: tcp-bulk, udp-echo-10k, fabric-vip or http-churn")
	fs.Int64Var(&o.seed, "seed", rec.DefaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run and isolation drivers")
	fs.StringVar(&o.inject, "inject", "", "deliberate fault to prove the correctness gate: payload or digest")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its span records to")
	fs.BoolVar(&o.digests, "print-digest", false, "print the workload's sim_digest for --seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w := findWorkload(o.workload)
	if w == nil || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	if o.inject != "" && o.inject != "payload" && o.inject != "digest" {
		fmt.Fprintf(stderr, "perfbench: --inject must be payload or digest\n")
		return 2
	}
	if o.digests {
		r, err := runEpisode(w, o.seed, "", max(w.workers, 1), nil, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, r.digest)
		return 0
	}
	want := rec.Digests[w.name][strconv.FormatInt(o.seed, 10)]
	if o.inject == "digest" {
		want = "0000000000000000"
	}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(w, o, want)
	} else {
		res, err = runPlain(w, o, want)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, o.seed, err)
		return 1
	}
	if err := res.print(stdout, w.name); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted, failed uint64
	digest            string
	metrics           []metric
	notes             []metric // printed, not part of the JSON line
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) print(w io.Writer, workload string) error {
	out := map[string]any{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	lines := append(append([]metric(nil), r.metrics...), r.notes...)
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	fmt.Fprintf(w, "%s sim_digest %s\n", workload, r.digest)
	for _, m := range lines {
		fmt.Fprintf(w, "%s %s %g %s\n", workload, m.name, m.value, m.unit)
	}
	b, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// phase is a sequence of measured episodes.
type phase struct {
	results []episodeResult
	window  time.Duration
}

// collect runs episodes until at least min have run and the windows add up
// to budget, then checks every digest against the first and against want.
func collect(w *workload, o options, want string, budget time.Duration, min int,
	hook func(*episode), chunkStart func()) (*phase, error) {
	p := &phase{}
	started := time.Now()
	for len(p.results) < min || p.window < budget {
		if len(p.results) > 0 && time.Since(started) > budget*4+60*time.Second {
			break // a very slow host: stop with what ran so the run ends in time
		}
		r, err := runEpisode(w, o.seed, o.inject, max(w.workers, 1), hook, chunkStart)
		if err != nil {
			return nil, err
		}
		if d := p.results; len(d) > 0 && r.digest != d[0].digest {
			return nil, fmt.Errorf("sim_digest differs between episodes of one seed: %s vs %s", d[0].digest, r.digest)
		}
		if want != "" && r.digest != want {
			return nil, fmt.Errorf("sim_digest %s does not match the recorded %s", r.digest, want)
		}
		p.results = append(p.results, r)
		p.window += r.wall
	}
	return p, nil
}

// sums adds up a phase's windows.
func (p *phase) sums() (chunks []float64, frames, mallocs, bytes uint64, ops opLog) {
	for _, r := range p.results {
		chunks = append(chunks, r.perChunk...)
		frames += r.frames
		mallocs += r.mallocs
		bytes += r.bytes
		ops.add(&r.ops)
	}
	return
}

func (p *phase) nsPerPkt() float64 {
	chunks, _, _, _, _ := p.sums()
	return median(chunks)
}

// checkWorkers reruns one episode of a sharded workload on one shard worker
// and requires the same sim_digest as the multi-worker episodes.
func checkWorkers(w *workload, o options, digest string) error {
	if w.workers <= 1 {
		return nil
	}
	r, err := runEpisode(w, o.seed, "", 1, nil, nil)
	if err != nil {
		return err
	}
	if r.digest != digest {
		return fmt.Errorf("sim_digest at 1 shard worker %s differs from %s at %d", r.digest, digest, w.workers)
	}
	return nil
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w *workload, o options, want string) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	p, err := collect(w, o, want, budget, 3, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := checkWorkers(w, o, p.results[0].digest); err != nil {
		return nil, err
	}
	chunks, frames, mallocs, bytes, ops := p.sums()
	var setups, cpuSetups, wallSetups, heaps, cpuChunks, wallChunks []float64
	for _, r := range p.results {
		setups = append(setups, r.setup.Seconds())
		cpuSetups = append(cpuSetups, r.setupCPU.Seconds())
		wallSetups = append(wallSetups, r.setupWall.Seconds())
		cpuChunks = append(cpuChunks, r.perChunkCPU...)
		wallChunks = append(wallChunks, r.perChunkWall...)
		heaps = append(heaps, r.heapMB)
	}
	res := &result{attempted: ops.attempted, failed: ops.failed, digest: p.results[0].digest}
	res.add("ns_per_pkt", median(chunks), "ns")
	res.add("setup_s", median(setups), "s")
	res.add("heap_mb", median(heaps), "MB")
	// The unscaled CPU and wall-clock costs, the allocation counts and the
	// failure ratio are printed but kept out of the JSON metrics. The
	// unscaled costs swing with the machine's speed by more than any useful
	// bound; the others are exactly 0 on some workload (the UDP paths
	// allocate nothing in steady state), so no relative bound applies to
	// them. The traced run reports the allocation counts per layer.
	res.notes = append(res.notes,
		metric{"cpu_ns_per_pkt", median(cpuChunks), "ns"},
		metric{"cpu_setup_s", median(cpuSetups), "s"},
		metric{"allocs_per_pkt", float64(mallocs) / float64(frames), "allocs/pkt"},
		metric{"bytes_per_pkt", float64(bytes) / float64(frames), "B/pkt"},
		metric{"fail_ratio", float64(ops.failed) / float64(ops.attempted), "ratio"},
		metric{"episodes", float64(len(p.results)), "count"},
		metric{"wall_ns_per_pkt", median(wallChunks), "ns"},
		metric{"wall_setup_s", median(wallSetups), "s"},
		metric{"frames", float64(frames), "count"})
	return res, nil
}

// runTraced is the traced run: an untraced phase for the reference
// ns_per_pkt, a traced phase with one sink per simulator, the isolation
// drivers, and the ledger.
func runTraced(w *workload, o options, want string) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	plain, err := collect(w, o, want, budget*3/10, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := checkWorkers(w, o, plain.results[0].digest); err != nil {
		return nil, err
	}
	tr := &tracer{epoch: time.Now()}
	traced, err := collect(w, o, want, budget*3/10, 1, tr.attach, tr.pauseAll)
	if err != nil {
		return nil, err
	}
	if traced.results[0].digest != plain.results[0].digest {
		return nil, errors.New("tracing changed the simulated outputs")
	}
	iso, err := runIsolation(o.seed, budget*35/100)
	if err != nil {
		return nil, err
	}
	if o.spans != "" {
		path := fmt.Sprintf("%s/%s-seed%d.tsv", o.spans, w.name, o.seed)
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
	}
	res := perLayer(w, plain, traced, tr.totals(), iso)
	return res, nil
}
