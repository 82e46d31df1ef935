// Command perfbench is the repository benchmark. It runs one seeded,
// closed-loop workload on the simulated MPICH/Madeleine machine for about
// a given time, checks every received byte, and prints the workload's
// metrics, last of all as one JSON line:
//
//	perfbench --workload p2p-mux --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced passes; --trace 1
// reports the per-layer metrics from a profiled untraced phase and a
// traced, profiled phase. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mpichmad/internal/trace"
)

// commit is the source revision, stamped at build time by run.sh.
var commit = "unknown"

// minSetups is the fewest set-ups a run measures: set-up time is their
// median. Runs whose workload passes leave fewer top up with set-up-only
// passes, for at least a tenth of the run time.
const minSetups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: p2p-mux, coll-gateway or halo-scale")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall seconds to keep starting workload passes for (at least one pass runs)")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced and profiled passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", o.workload, traceFlag, o.seconds)
		return 2
	}
	o.traced = traceFlag == 1
	j, err := w.gen(o.seed, newPayloads(&splitmix64{s: o.seed}))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: generating %s inputs: %v\n", w.name, err)
		return 1
	}

	r := measureEndToEnd
	if o.traced {
		r = measureLayers
	}
	rep, err := r(w, j, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout, o)
	return 0
}

// report is one run's outcome.
type report struct {
	metrics   map[string]float64
	defs      []metricDef
	attempted int
	failed    int
	problems  []string // why the run is not correct
	notes     []string
	env       map[string]any
}

// runPasses runs passes of w, at least one, and starts another only
// while half a pass still fits before the deadline: a workload whose pass
// takes about as long as the deadline then runs the same number of
// passes every time, instead of one or two depending on host jitter. It
// stops early at the first pass that fails.
func runPasses(w workload, j job, until time.Time, tracer func() *trace.Tracer) []*pass {
	var out []*pass
	for last := time.Duration(0); len(out) == 0 || time.Now().Add(last/2).Before(until); {
		t := time.Now()
		p := runPass(w, j, tracer())
		last = time.Since(t)
		out = append(out, p)
		if p.err != nil {
			break
		}
	}
	return out
}

// audit counts operations and collects correctness problems over passes:
// failed passes, wrong data, and any virtual-time result that differs
// from the first pass's.
func (r *report) audit(j job, passes []*pass, ref *pass, label string) {
	for i, p := range passes {
		r.attempted += j.ops()
		r.failed += j.ops() - p.virt.ok
		switch {
		case p.err != nil:
			r.problems = append(r.problems, fmt.Sprintf("%s pass %d: %v", label, i, p.err))
		case p.virt.ok != j.ops():
			r.problems = append(r.problems, fmt.Sprintf("%s pass %d: %d of %d operations verified", label, i, p.virt.ok, j.ops()))
		case !p.virt.equal(&ref.virt):
			r.problems = append(r.problems, fmt.Sprintf("%s pass %d: virtual results differ from the first pass", label, i))
		}
	}
}

func measureEndToEnd(w workload, j job, o options) (*report, error) {
	start := time.Now()
	passes := runPasses(w, j, start.Add(secs(o.seconds)), func() *trace.Tracer { return nil })
	r := newReport(w, o, endToEnd)
	r.audit(j, passes, passes[0], "untraced")
	var setup []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
	}
	topUp := time.Now().Add(secs(o.seconds / 10))
	for len(setup) < minSetups || time.Now().Before(topUp) {
		p := runPass(w, nil, nil)
		if p.err != nil || p.virt.init != passes[0].virt.init {
			r.problems = append(r.problems, fmt.Sprintf("set-up pass: error %v, virtual init %v (want %v)", p.err, p.virt.init, passes[0].virt.init))
			break
		}
		setup = append(setup, p.setup.Seconds())
	}
	v := &passes[0].virt
	sorted := sortedCopy(v.lat)
	if n := len(sorted); beyond(n, 90) < minBeyond {
		r.problems = append(r.problems, fmt.Sprintf("%d latency samples: too few for a p90", n))
	}
	var opsPerS []float64
	for _, p := range passes {
		opsPerS = append(opsPerS, float64(j.ops())/p.run.Seconds())
	}
	r.metrics["setup_s"] = median(setup)
	r.metrics["host_ops_per_s"] = median(opsPerS)
	r.metrics["peak_rss_mb"] = peakRSSMB()
	r.metrics["vlat_p50_us"] = percentile(sorted, 50)
	r.metrics["vlat_p90_us"] = percentile(sorted, 90)
	r.metrics["vgoodput_mbps"] = float64(v.landed) / v.span.Seconds() / 1e6
	tp, tv, n, _ := highestTail(v.lat)
	r.notes = append(r.notes,
		fmt.Sprintf("fail_frac %.6g (%d of %d operations)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted),
		fmt.Sprintf("vlat samples %d; highest percentile with %d beyond it: p%g = %.3f us", n, minBeyond, tp, tv),
		fmt.Sprintf("vinit %.3f ms, run-phase makespan %.3f ms, %d payload bytes verified", v.init.Micros()/1e3, v.span.Micros()/1e3, v.landed))
	r.env["passes"] = len(passes)
	r.env["vlat_samples"] = n
	r.env["setup_samples"] = len(setup)
	r.env["elapsed_s"] = time.Since(start).Seconds()
	return r, nil
}

func measureLayers(w workload, j job, o options) (*report, error) {
	start := time.Now()
	half := start.Add(secs(o.seconds / 2))
	var profA, profB bytes.Buffer
	if err := pprof.StartCPUProfile(&profA); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	plain := runPasses(w, j, half, func() *trace.Tracer { return nil })
	pprof.StopCPUProfile()
	if err := pprof.StartCPUProfile(&profB); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runPasses(w, j, start.Add(secs(o.seconds)), func() *trace.Tracer { return trace.New(nil) })
	pprof.StopCPUProfile()

	r := newReport(w, o, perLayer)
	r.audit(j, plain, plain[0], "untraced")
	r.audit(j, traced, plain[0], "traced")
	for i, p := range traced {
		if p.spans != traced[0].spans {
			r.problems = append(r.problems, fmt.Sprintf("traced pass %d: span sums differ from the first traced pass", i))
		}
	}
	cpuA, err := cpuPerPass(profA.Bytes(), len(plain))
	if err != nil {
		return nil, err
	}
	cpuB, err := cpuPerPass(profB.Bytes(), len(traced))
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		r.metrics["host.cpu_s."+b] = cpuA[b]
	}
	r.metrics["trace.cpu_s"] = cpuB["trace"]

	med := func(ps []*pass, f func(*pass) float64) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, f(p))
		}
		return median(v)
	}
	runA := med(plain, func(p *pass) float64 { return p.run.Seconds() })
	runB := med(traced, func(p *pass) float64 { return p.run.Seconds() })
	v, c, s := &plain[0].virt, plain[0].virt.counter, traced[0].spans
	m := r.metrics
	m["trace.overhead_frac"] = runB/runA - 1
	m["host.ns_per_packet"] = runA * 1e9 / float64(max(c.Packets, 1))
	m["host.mallocs_per_op"] = med(plain, func(p *pass) float64 { return float64(p.mallocs) }) / float64(j.ops())
	m["host.alloc_mb.setup"] = med(plain, func(p *pass) float64 { return float64(p.allocSetup) }) / 1e6
	m["host.alloc_mb.run"] = med(plain, func(p *pass) float64 { return float64(p.allocRun) }) / 1e6
	m["host.build_s"] = med(plain, func(p *pass) float64 { return p.build.Seconds() })
	m["host.init_s"] = med(plain, func(p *pass) float64 { return p.init.Seconds() })
	m["netsim.packets"] = float64(c.Packets)
	m["netsim.wire_mb"] = float64(c.WireBytes) / 1e6
	m["netsim.trunk_wait_ms"] = c.TrunkWait.Micros() / 1e3
	m["netsim.trunk_peak"] = float64(c.TrunkPeak)
	m["core.eager_msgs.san"] = float64(c.EagerSAN)
	m["core.eager_msgs.wan"] = float64(c.EagerWAN)
	m["core.rndv_msgs.san"] = float64(c.RndvSAN)
	m["core.rndv_msgs.wan"] = float64(c.RndvWAN)
	m["core.forwarded"] = float64(c.Forwarded)
	m["core.relay_mb"] = float64(c.RelayByte) / 1e6
	m["core.relay_deferred"] = float64(c.RelayDeferred)
	m["core.relay_busy"] = float64(c.RelayBusy)
	m["core.rndv_retries"] = float64(c.RndvRetries)
	m["core.relay_qpeak"] = float64(c.RelayQPeak)
	m["core.relay_drops"] = float64(c.RelayDrops)
	m["core.payload_per_wire"] = float64(v.landed) / float64(max(c.WireBytes, 1))
	m["core.eager_send_ms"] = s.EagerSend.Micros() / 1e3
	m["core.rndv_body_ms"] = s.RndvBody.Micros() / 1e3
	m["core.relay_hop_ms"] = s.RelayHop.Micros() / 1e3
	m["core.credit_wait_ms"] = s.CreditWait.Micros() / 1e3
	m["mpi.sched_rounds"] = float64(s.Rounds)
	m["mpi.sched_round_ms"] = s.SchedRound.Micros() / 1e3
	m["mpi.coll_ms"] = s.Coll.Micros() / 1e3
	m["mpi.vinit_ms"] = v.init.Micros() / 1e3
	r.env["passes_untraced"] = len(plain)
	r.env["passes_traced"] = len(traced)
	r.env["vlat_samples"] = len(v.lat)
	r.env["elapsed_s"] = time.Since(start).Seconds()
	return r, nil
}

// cpuPerPass attributes a CPU profile to the host.cpu_s buckets, in CPU
// seconds per pass.
func cpuPerPass(prof []byte, passes int) (map[string]float64, error) {
	samples, err := parseCPUProfile(prof)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for b, ns := range attribute(samples) {
		out[b] = float64(ns) / 1e9 / float64(passes)
	}
	return out, nil
}

func newReport(w workload, o options, defs []metricDef) *report {
	return &report{
		metrics: make(map[string]float64),
		defs:    defs,
		env: map[string]any{
			"workload":   w.name,
			"seed":       o.seed,
			"seconds":    o.seconds,
			"trace":      o.traced,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     commit,
		},
	}
}

// print writes the human-readable report, the environment record and,
// last, the JSON result line.
func (r *report) print(w io.Writer, o options) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.traced)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(r.defs))
	for _, d := range r.defs {
		v := r.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.Name, v))
			v = 0
		}
		out[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	env, _ := json.Marshal(r.env) // a map of strings and numbers always encodes
	fmt.Fprintf(w, "env %s\n", env)
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, out})
	fmt.Fprintf(w, "%s\n", res)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
