package experiments

// The per-link device-mux experiment (id "heteromux"): a heterogeneous
// cluster of clusters where every device class of the mux is exercised
// at once — each rank pair rides the transport its placement calls for:
//
//   - intra-process traffic stays on the chself class ("self"),
//   - intra-node pairs ride the smp_plug shared-memory class ("smp"),
//   - intra-island pairs ride their SAN (SCI or Myrinet/BIP, "san"),
//   - cross-island pairs cross the TCP backbone ("wan"),
//
// and each link runs the eager/rendez-vous switch point its own class
// measured at MPI_Init, not one globally elected compromise. The
// Uniform_* series rerun the identical collectives on the same hardware
// under the seed's single-protocol configuration (Topology.Uniform):
// intra-node pairs fall back to ch_mad over the fastest shared network,
// one global switch point is elected for every link (§4.2.2's unique-
// threshold constraint), and backbone pipeline segments are capped by
// that global election. The Mux_*/Uniform_* ratios are gated by
// cmd/benchcheck.

import (
	"fmt"
	"sort"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// heteroTopo is the heteromux benchmark topology: two dual-processor
// nodes on an SCI island, two more on a Myrinet/BIP island, all four on
// a shared Fast-Ethernet backbone. 8 ranks, four device classes.
// uniform selects the single-protocol ablation wiring.
func heteroTopo(uniform bool) cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "sciN0", Procs: 2}, {Name: "sciN1", Procs: 2},
			{Name: "myriN0", Procs: 2}, {Name: "myriN1", Procs: 2},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"sciN0", "sciN1"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"myriN0", "myriN1"}},
			{Name: "eth", Protocol: "tcp",
				Nodes: []string{"sciN0", "sciN1", "myriN0", "myriN1"}},
		},
		Uniform:  uniform,
		Autotune: true,
	}
}

// HeteroMux (X6, id "heteromux") benchmarks the per-link device mux
// against the uniform single-protocol transport on the mixed
// SCI+BIP+TCP cluster: the same collectives, the same placement, only
// the link wiring and tuning differ. The report appends rank 0's link
// classification (device class and effective switch point per peer) and
// the per-class thresholds the MPI_Init autotuner measured.
func HeteroMux() (*Result, error) {
	sizes := []int{8, 256, 4 << 10, 64 << 10, 256 << 10}
	ops := []struct {
		name string
		op   collOp
	}{
		{"Bcast", bcast},
		{"Allreduce", allreduce},
		{"Alltoall", alltoall},
	}

	// One shared cache per configuration shape: the MPI_Init sweep (and
	// the per-class switch-point probes) run once per shape, and every
	// per-size session after that reloads the measured table.
	cache := cluster.NewTuneCache()
	run := func(uniform bool, op collOp, size int) (vtime.Duration, error) {
		topo := heteroTopo(uniform)
		topo.TuneCache = cache
		perOp, _, err := window{topo: topo, iters: 3, size: size, op: op}.run()
		return perOp, err
	}

	var series []*stats.Series
	for _, spec := range ops {
		mux := &stats.Series{Name: "Mux_" + spec.name}
		uni := &stats.Series{Name: "Uniform_" + spec.name}
		for _, size := range sizes {
			mt, err := run(false, spec.op, size)
			if err != nil {
				return nil, fmt.Errorf("mux %s %d: %w", spec.name, size, err)
			}
			ut, err := run(true, spec.op, size)
			if err != nil {
				return nil, fmt.Errorf("uniform %s %d: %w", spec.name, size, err)
			}
			mux.Add(size, mt)
			uni.Add(size, ut)
		}
		series = append(series, mux, uni)
	}

	res := render("heteromux",
		"Extension X6: per-link device mux vs uniform single-protocol transport (SCI+BIP islands over TCP)",
		'a', series)

	// Introspection session: rank 0's view of the mux — which device
	// class each peer's link resolved to and the switch point in effect
	// on it, plus the per-class thresholds from the autotuner (also
	// visible as the SwitchPoint rows of Process.TuneSnapshot).
	topo := heteroTopo(false)
	topo.TuneCache = cache
	sess, err := cluster.Build(topo)
	if err != nil {
		return nil, err
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(res.Text)
	b.WriteString("\nRank 0 link map (per-link device mux):\n")
	fmt.Fprintf(&b, "%-6s %-10s %-8s %14s\n", "peer", "node", "class", "switch point")
	for dst := 0; dst < len(sess.Ranks); dst++ {
		class := sess.LinkClassOf(0, dst)
		sp := "-"
		if class == "san" || class == "wan" {
			sp = stats.SizeLabel(sess.Ranks[0].ChMad.SwitchPointTo(dst))
		}
		fmt.Fprintf(&b, "%-6d %-10s %-8s %14s\n", dst, sess.RankNode(dst), class, sp)
	}
	b.WriteString("\nMeasured per-class eager thresholds (MPI_Init probes):\n")
	classes := sess.Ranks[0].MPI.ClassSwitchPoints()
	names := make([]string, 0, len(classes))
	for class := range classes {
		names = append(names, class)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-8s %14s\n", "class", "threshold")
	for _, class := range names {
		fmt.Fprintf(&b, "%-8s %14s\n", class, stats.SizeLabel(classes[class]))
	}
	fmt.Fprintf(&b, "\nMux speedup over the uniform single-protocol transport:\n")
	fmt.Fprintf(&b, "%-12s", "size")
	for _, spec := range ops {
		fmt.Fprintf(&b, " %12s", spec.name)
	}
	b.WriteString("\n")
	for _, size := range sizes {
		fmt.Fprintf(&b, "%-12s", stats.SizeLabel(size))
		for i := range ops {
			pm, _ := series[2*i].At(size)
			pu, _ := series[2*i+1].At(size)
			fmt.Fprintf(&b, " %11.2fx", pu.LatencyUS()/pm.LatencyUS())
		}
		b.WriteString("\n")
	}
	res.Text = b.String()
	return res, nil
}
