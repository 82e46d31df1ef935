package experiments

// The scale experiment (X8): the 1000+-rank machine the hierarchical
// routing overhaul exists for. 64 SCI islands of 16 ranks each — 1024
// ranks — chained over one aggregate-bandwidth-capped TCP backbone
// through per-cluster gateways, running Allreduce and Bcast through the
// two-level collectives. At this size the historical all-pairs planner
// state alone (1024² path walks at build, again per re-plan) dominated
// wall time; the bloc-quotient plan plus lazy rails/classes keep the
// session build linear-ish in ranks, which is what lets this experiment
// run in CI at all. Simulated times are deterministic and land in the
// rendered table; wall-clock cost is tracked separately by the scale
// benchmark series (BENCH_scale.json, gated by cmd/benchcheck).

import (
	"fmt"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
)

// The scale machine: ScaleClusters × ScaleRanksPer = 1024 ranks.
const (
	ScaleClusters   = 64
	ScaleRanksPer   = 16
	scaleBcastRoot  = 0
	scaleMaxPayload = 16 << 10
)

// ScaleTopo builds the nClusters×perCluster cluster-of-clusters: one
// sisci island per cluster, the first node of every island multi-homed
// onto a single capped TCP backbone trunk (NetworkBandwidth=Bandwidth:
// concurrent crossings share one trunk instead of private pipes), with
// forwarding on so the island-interior ranks reach other clusters through
// their gateway. Exported for the scale benchmark harness.
func ScaleTopo(nClusters, perCluster int) cluster.Topology {
	bb := netsim.FastEthernetTCP()
	bb.NetworkBandwidth = bb.Bandwidth
	topo := cluster.Topology{
		Forwarding: true,
		// Single-rail: at 1024 ranks the second-rail sweep would double the
		// planner's per-pair work for rails striping never exercises here.
		MaxPaths: 1,
	}
	gateways := make([]string, 0, nClusters)
	for c := 0; c < nClusters; c++ {
		nodes := make([]string, 0, perCluster)
		for n := 0; n < perCluster; n++ {
			name := fmt.Sprintf("c%02dn%02d", c, n)
			topo.Nodes = append(topo.Nodes, cluster.NodeSpec{Name: name, Procs: 1})
			nodes = append(nodes, name)
		}
		topo.Networks = append(topo.Networks, cluster.NetworkSpec{
			Name:     fmt.Sprintf("cl%03d", c),
			Protocol: "sisci",
			Nodes:    nodes,
		})
		gateways = append(gateways, nodes[0])
	}
	topo.Networks = append(topo.Networks, cluster.NetworkSpec{
		Name: "bb", Protocol: "tcp", Params: &bb, Nodes: gateways,
	})
	return topo
}

// Scale (X8) runs Allreduce and Bcast sweeps on the full 1024-rank
// machine and reports per-operation simulated time.
func Scale() (*Result, error) {
	sess, err := cluster.Build(ScaleTopo(ScaleClusters, ScaleRanksPer))
	if err != nil {
		return nil, err
	}
	size := ScaleClusters * ScaleRanksPer
	sizes := []int{64, 1 << 10, scaleMaxPayload}
	allreduce := &stats.Series{Name: "Allreduce"}
	bcast := &stats.Series{Name: "Bcast"}
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		for _, n := range sizes {
			in, out := make([]byte, n), make([]byte, n)
			if err := comm.Barrier(); err != nil {
				return err
			}
			start := sess.S.Now()
			if err := comm.Allreduce(in, out, n/8, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			if rank == 0 {
				allreduce.Add(n, sess.S.Now().Sub(start))
			}
			if err := comm.Barrier(); err != nil {
				return err
			}
			start = sess.S.Now()
			if err := comm.Bcast(out, n, mpi.Byte, scaleBcastRoot); err != nil {
				return err
			}
			if rank == 0 {
				bcast.Add(n, sess.S.Now().Sub(start))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Scale: %d-rank machine (%d clusters x %d ranks, capped backbone)",
		size, ScaleClusters, ScaleRanksPer)
	res := render("scale", title, 'a', []*stats.Series{allreduce, bcast})
	var b strings.Builder
	b.WriteString(res.Text)
	// Zero relaying ranks is the election doing its job: leaders sit on
	// the multi-homed gateways, so leader-level exchanges ride the
	// backbone directly instead of being store-and-forwarded.
	b.WriteString(fmt.Sprintf("\nRouting blocs: %d (of %d ranks); store-and-forward relaying ranks: %d\n",
		sess.RoutePlan().BlocCount(), size, len(sess.RelayStats())))
	res.Text = b.String()
	return res, nil
}
