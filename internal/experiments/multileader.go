package experiments

// The multi-leader collectives experiment (id "multileader"): bandwidth
// aggregation across every gateway of the bridged triangle. Each island
// fronts two bridges, so leader-set election widens every cluster's
// leader into a two-member, gateway-diverse set and the 2level-multi
// algorithms shard the inter-cluster phase across both — where the
// single-leader two-level form funnels the whole payload through one
// gateway and leaves the other bridge idle.
//
//   - ML_Bcast_multi / ML_Alltoall_multi: the session autotunes at init
//     (Autotune: true) and the measured run dispatches through the
//     resulting table (CollAuto) — the multi-leader schedules must be
//     *selected*, not forced, for the large-payload brackets.
//   - ML_Bcast_single / ML_Alltoall_single: the same autotuned sessions
//     with the single-leader two-level form forced (CollHier), the
//     baseline the paper's §4.3 two-level collectives correspond to.
//
// The acceptance bar (cmd/benchcheck): multi >= 1.5x on time at 1 MiB
// for both operations.

import (
	"fmt"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// multiLeaderRun measures one collective's per-operation time on an
// autotuned bridged-triangle session with the given selection mode, plus
// each bridge network's wire bytes per operation over the measured
// window — the crossing-split diagnostic.
func multiLeaderRun(mode mpi.CollMode, iters, size int, op collOp) (vtime.Duration, map[string]uint64, error) {
	topo := triangleTopo()
	topo.Autotune = true
	var marks []map[string]uint64
	bridgeBytes := func(sess *cluster.Session) {
		out := make(map[string]uint64)
		for name, net := range sess.Networks {
			if net.Params.Protocol == "tcp" {
				out[name] = net.Stats.Bytes
			}
		}
		marks = append(marks, out)
	}
	perOp, _, err := window{topo: topo, mode: mode, fenced: true, iters: iters, size: size, op: op,
		mark: bridgeBytes}.run()
	if err != nil {
		return 0, nil, err
	}
	before, after := marks[0], marks[1]
	crossed := make(map[string]uint64, len(after))
	for name, b := range after {
		crossed[name] = (b - before[name]) / uint64(iters)
	}
	return perOp, crossed, nil
}

// MultiLeader (X9) benchmarks the multi-leader collectives on the
// bridged triangle: autotuner-selected multi-leader Bcast and Alltoall
// against the forced single-leader two-level forms, with a per-bridge
// crossing table at the largest payload showing the inter-cluster phase
// engaging every gateway.
func MultiLeader() (*Result, error) {
	sizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	// Alltoall's size is the whole per-rank vector, split into one block
	// per rank.
	blockAlltoall := func(rk *cluster.Rank, comm *mpi.Comm, size int) error {
		return alltoall(rk, comm, max(size/comm.Size(), 1))
	}
	benches := []struct {
		name string
		mode mpi.CollMode
		op   collOp
	}{
		{"ML_Bcast_multi", mpi.CollAuto, bcast},
		{"ML_Bcast_single", mpi.CollHier, bcast},
		{"ML_Alltoall_multi", mpi.CollAuto, blockAlltoall},
		{"ML_Alltoall_single", mpi.CollHier, blockAlltoall},
	}
	const iters = 3
	var series []*stats.Series
	crossings := make(map[string]map[string]uint64)
	for _, bm := range benches {
		s := &stats.Series{Name: bm.name}
		for _, size := range sizes {
			perOp, crossed, err := multiLeaderRun(bm.mode, iters, size, bm.op)
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", bm.name, size, err)
			}
			s.Add(size, perOp)
			if size == sizes[len(sizes)-1] {
				crossings[bm.name] = crossed
			}
		}
		series = append(series, s)
	}
	res := render("multileader",
		"Extension X9: multi-leader collectives on the bridged triangle (autotuned vs forced single-leader)",
		'a', series)

	// Per-bridge crossing table at the largest payload: the multi-leader
	// rows must spread bytes over all three bridges, the single-leader
	// rows concentrate them.
	bridges := []string{"gwAB", "gwBC", "gwCA"}
	var b strings.Builder
	b.WriteString(res.Text)
	fmt.Fprintf(&b, "\nBridge bytes per operation at %s:\n", stats.SizeLabel(sizes[len(sizes)-1]))
	fmt.Fprintf(&b, "%-22s %12s %12s %12s\n", "series", bridges[0], bridges[1], bridges[2])
	for _, bm := range benches {
		c := crossings[bm.name]
		fmt.Fprintf(&b, "%-22s %12d %12d %12d\n", bm.name, c[bridges[0]], c[bridges[1]], c[bridges[2]])
	}
	res.Text = b.String()
	return res, nil
}
