// Top-level benchmark harness. Every virtual-time number of the paper's
// evaluation (§5) and of the extensions is pinned exactly by
// internal/experiments (TestAllRegeneratesEveryArtifact, against
// testdata/artifacts.golden and BENCH_collectives.json), so these
// benchmarks measure only the simulator's own wall-clock cost:
//
//	go test -run '^$' -bench BenchmarkExperiments .   # ns/op per experiment
//	go test -run '^$' -bench BenchmarkScaleMachine -benchtime 1x .
//
// BenchmarkScaleMachine also records the routing planner's growth from
// 256 to 1024 ranks and the 1024-rank run's wall time to BENCH_scale.json
// for cmd/benchcheck. The regenerated tables themselves come from:
//
//	go run ./cmd/experiments -exp all
package mpichmad_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mpichmad/internal/experiments"
	"mpichmad/internal/netsim"
	"mpichmad/internal/route"
)

// BenchmarkExperiments regenerates each experiment of cmd/experiments'
// table, one sub-benchmark per id, and reports its wall time per run.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for b.Loop() {
				if _, err := experiments.ByID(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scaleRouteGraph mirrors the X8 scale machine as a planner graph:
// nClusters SCI islands of perCluster ranks, one gateway per island (the
// island's first rank) on a trunk-capped TCP backbone.
func scaleRouteGraph(nClusters, perCluster int) route.Graph {
	g := route.Graph{Nets: make(map[string]netsim.Params)}
	bb := netsim.FastEthernetTCP()
	bb.NetworkBandwidth = bb.Bandwidth
	g.Nets["bb"] = bb
	for c := 0; c < nClusters; c++ {
		fabric := fmt.Sprintf("cl%03d", c)
		g.Nets[fabric] = netsim.SCISISCI()
		for m := 0; m < perCluster; m++ {
			nets := []string{fabric}
			if m == 0 {
				nets = append(nets, "bb")
			}
			g.NetsOf = append(g.NetsOf, nets)
			g.N++
		}
	}
	return g
}

// scalePlanWorkload drives the resolution pattern a scale session puts on
// a fresh plan: bloc-representative sweeps (leader election), member ->
// leader route installation, and the leader-pair cost scan (backbone
// recalibration).
func scalePlanWorkload(tb testing.TB, plan *route.Plan, nClusters, perCluster int) {
	for bl := 0; bl < plan.BlocCount(); bl++ {
		r := plan.BlocMembers(bl)[0]
		for ob := 0; ob < plan.BlocCount(); ob++ {
			if ob == bl {
				continue
			}
			o := plan.BlocMembers(ob)[0]
			if _, ok := plan.Cost(r, o); !ok {
				tb.Fatalf("unroutable bloc pair %d->%d", bl, ob)
			}
			if plan.Hops(r, o) < 0 {
				tb.Fatalf("no hops for bloc pair %d->%d", bl, ob)
			}
		}
	}
	for c := 0; c < nClusters; c++ {
		leader := c * perCluster
		for m := 1; m < perCluster; m++ {
			if _, _, ok := plan.NextHop(leader+m, leader); !ok {
				tb.Fatalf("member %d cannot reach leader %d", leader+m, leader)
			}
		}
	}
	for a := 0; a < nClusters; a++ {
		for o := 0; o < nClusters; o++ {
			if a == o {
				continue
			}
			if _, ok := plan.Cost(a*perCluster, o*perCluster); !ok {
				tb.Fatalf("unroutable leader pair %d->%d", a, o)
			}
		}
	}
}

// scalePlannerPoint is one machine size's planner cost sample in
// BENCH_scale.json: the full construction+resolution workload (ns, allocs)
// and bare plan construction (ns). The benchcheck growth gate bounds the
// 256->1024 ratios sub-quadratic (quadratic would be 16x).
type scalePlannerPoint struct {
	Ranks            int   `json:"ranks"`
	WorkloadNsPerOp  int64 `json:"workload_ns_per_op"`
	WorkloadBPerOp   int64 `json:"workload_bytes_per_op"`
	WorkloadAllocs   int64 `json:"workload_allocs_per_op"`
	ConstructNsPerOp int64 `json:"construct_ns_per_op"`
}

// measureLoop times fn (hand-rolled, since testing.Benchmark cannot be
// nested inside a running benchmark): it calibrates an iteration count
// off one warm-up run, then reports per-op wall ns and heap allocation
// deltas from runtime.MemStats.
func measureLoop(fn func()) (nsPerOp, bPerOp, allocsPerOp int64) {
	start := time.Now()
	fn() // warm-up, and the calibration sample
	once := time.Since(start)
	iters := 1
	if target := 250 * time.Millisecond; once < target {
		iters = int(target / (once + 1))
		if iters > 200 {
			iters = 200
		}
	}
	// Three rounds, keeping the fastest wall time (the classic noise
	// filter: scheduling hiccups only ever slow a round down). Allocation
	// deltas are deterministic, so the first round's values stand.
	n := int64(iters)
	for round := 0; round < 3; round++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if ns := elapsed.Nanoseconds() / n; nsPerOp == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if round == 0 {
			bPerOp = int64(after.TotalAlloc-before.TotalAlloc) / n
			allocsPerOp = int64(after.Mallocs-before.Mallocs) / n
		}
	}
	return nsPerOp, bPerOp, allocsPerOp
}

// BenchmarkScaleMachine measures the 1000+-rank scaling story (X8): the
// routing planner's cost growth from 256 to 1024 ranks (construction
// alone and construction plus the session resolution workload) and the
// full 1024-rank scale experiment's wall-clock time, recording everything
// to BENCH_scale.json for the benchcheck growth gate.
func BenchmarkScaleMachine(b *testing.B) {
	var planner []scalePlannerPoint
	for _, shape := range []struct{ nc, per int }{{16, experiments.ScaleRanksPer},
		{experiments.ScaleClusters, experiments.ScaleRanksPer}} {
		nc, per := shape.nc, shape.per
		g := scaleRouteGraph(nc, per)
		opts := route.Options{RefBytes: route.DefaultRefBytes, MaxPaths: 1}
		wNs, wB, wAllocs := measureLoop(func() {
			scalePlanWorkload(b, route.ComputeOpts(g, opts), nc, per)
		})
		cNs, _, _ := measureLoop(func() {
			route.ComputeOpts(g, opts)
		})
		planner = append(planner, scalePlannerPoint{
			Ranks:            nc * per,
			WorkloadNsPerOp:  wNs,
			WorkloadBPerOp:   wB,
			WorkloadAllocs:   wAllocs,
			ConstructNsPerOp: cNs,
		})
	}

	b.ResetTimer()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Scale()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	wallMs := float64(b.Elapsed().Milliseconds()) / float64(b.N)
	b.ReportMetric(wallMs, "wallms/run")
	// After ResetTimer: it deletes user-reported metrics, so the planner
	// samples are reported here, not inside the measurement loop above.
	for _, p := range planner {
		b.ReportMetric(float64(p.WorkloadNsPerOp), fmt.Sprintf("planner_ns@%d", p.Ranks))
		b.ReportMetric(float64(p.WorkloadBPerOp), fmt.Sprintf("planner_B@%d", p.Ranks))
	}
	writeScaleJSON(b, planner, wallMs, res)
}

// writeScaleJSON records the scale machine's planner growth samples, the
// 1024-rank experiment's wall-clock cost and its (deterministic) simulated
// collective sweeps next to the benchmark for the benchcheck gate. Unlike
// the series, the wall-clock and ns fields are host-dependent; only their
// growth ratios and a generous wall-clock ceiling are gated.
func writeScaleJSON(b *testing.B, planner []scalePlannerPoint, wallMs float64, res *experiments.Result) {
	b.Helper()
	out := struct {
		Experiment string                    `json:"experiment"`
		Topology   string                    `json:"topology"`
		Planner    []scalePlannerPoint       `json:"planner"`
		RunRanks   int                       `json:"run_ranks"`
		RunWallMs  float64                   `json:"run_wall_ms"`
		Series     []experiments.BenchSeries `json:"series"`
	}{
		Experiment: "X8 scale: hierarchical routing + scheduler hot paths at 1024 ranks",
		Topology: "64 SCI islands x 16 ranks (1024 ranks), one gateway per island on a" +
			" trunk-capped TCP backbone; planner growth sampled at 256 and 1024 ranks" +
			" on the same shape (workload = construction + bloc/leader resolution sweep)",
		Planner:   planner,
		RunRanks:  experiments.ScaleClusters * experiments.ScaleRanksPer,
		RunWallMs: wallMs,
		Series:    res.Bench(),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(data, '\n'), 0o644); err != nil {
		b.Logf("could not record BENCH_scale.json: %v", err)
	}
}
