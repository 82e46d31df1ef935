package experiments

// The multi-gateway experiment (X5): the routing subsystem's benchmark
// scenario. A 3-cluster bridged topology — two SCI islands and a Myrinet
// island with NO common network, chained by two point-to-point TCP
// bridges — exercises everything the cost-model router added: multi-hop
// forwarded routes, gateway-aware leader election, pipelined relaying,
// and gateway load accounting.

import (
	"fmt"
	"strings"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// gatewayTopo is the bridged 3-cluster topology (ranks 0-8). The bridge
// endpoints a2, b1, b2, c1 are the gateways; rank numbering makes the
// lowest-rank leader convention pick non-gateway leaders, so the
// gateway-aware election has real work to do.
func gatewayTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "a0", Procs: 1}, {Name: "a1", Procs: 1}, {Name: "a2", Procs: 1},
			{Name: "b0", Procs: 1}, {Name: "b1", Procs: 1}, {Name: "b2", Procs: 1},
			{Name: "c0", Procs: 1}, {Name: "c1", Procs: 1}, {Name: "c2", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: []string{"a0", "a1", "a2"}},
			{Name: "sciB", Protocol: "sisci", Nodes: []string{"b0", "b1", "b2"}},
			{Name: "myriC", Protocol: "bip", Nodes: []string{"c0", "c1", "c2"}},
			{Name: "gwAB", Protocol: "tcp", Nodes: []string{"a2", "b1"}},
			{Name: "gwBC", Protocol: "tcp", Nodes: []string{"b2", "c1"}},
		},
		Forwarding: true,
	}
}

// gatewayColl measures one collective's per-operation time on the
// bridged topology and the gateway-relayed message count per operation,
// each size on a fresh session between bracketing barriers. The relay
// count of an identical empty window (the bracketing barriers' own
// gateway traffic) is subtracted, so the hop series reports what the
// operation itself costs. It also returns the relay stats of the
// largest size's session.
func gatewayColl(topo cluster.Topology, mode mpi.CollMode, sizes []int,
	op collOp) (*stats.Series, map[int]uint64, []stats.RelayStat, error) {
	const iters = 3
	// relayedIn runs one window at size and returns rank 0's per-op time,
	// the session, and the gateway messages relayed between the window's
	// opening and closing barriers.
	relayedIn := func(size int, op collOp) (vtime.Duration, *cluster.Session, uint64, error) {
		var marks []uint64
		w := window{topo: topo, mode: mode, fenced: true, iters: iters, size: size, op: op,
			mark: func(sess *cluster.Session) {
				var total uint64
				for _, rk := range sess.Ranks {
					total += rk.ChMad.NForwarded
				}
				marks = append(marks, total)
			}}
		perOp, sess, err := w.run()
		if err != nil {
			return 0, nil, 0, err
		}
		return perOp, sess, marks[1] - marks[0], nil
	}
	_, _, base, err := relayedIn(0, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	s := &stats.Series{}
	hops := make(map[int]uint64)
	var relays []stats.RelayStat
	for _, size := range sizes {
		perOp, sess, relayed, err := relayedIn(size, op)
		if err != nil {
			return nil, nil, nil, err
		}
		s.Add(size, perOp)
		hops[size] = (relayed - base) / iters
		if size == sizes[len(sizes)-1] {
			relays = sess.RelayStats()
		}
	}
	return s, hops, relays, nil
}

// GatewayCollectives (X5) benchmarks the bridged 3-cluster topology:
// flat, gateway-aware two-level and leader-oblivious two-level Bcast and
// Allreduce (virtual time and gateway hops per operation), plus the
// pipelined-vs-store-and-forward relay comparison on the longest routed
// pair (a0 -> c2, four gateways). The *_gw two-level series must beat
// flat past 64 KiB and the gateway-aware leaders must relay strictly
// fewer messages than the oblivious ones — both gated by cmd/benchcheck.
func GatewayCollectives() (*Result, error) {
	sizes := []int{8, 4 << 10, 64 << 10, 256 << 10}
	aware := gatewayTopo()
	naive := gatewayTopo()
	naive.ObliviousLeaders = true

	benches := []struct {
		name string
		topo cluster.Topology
		mode mpi.CollMode
		op   collOp
	}{
		{"Bcast_flat_gw", aware, mpi.CollFlat, bcast},
		{"Bcast_2level_gw", aware, mpi.CollHier, bcast},
		{"Bcast_2level_gwnaive", naive, mpi.CollHier, bcast},
		{"Allreduce_flat_gw", aware, mpi.CollFlat, allreduce},
		{"Allreduce_2level_gw", aware, mpi.CollHier, allreduce},
		{"Allreduce_2level_gwnaive", naive, mpi.CollHier, allreduce},
	}
	var series []*stats.Series
	hopRows := make(map[string]map[int]uint64)
	var awareRelays []stats.RelayStat
	for _, bm := range benches {
		s, hops, relays, err := gatewayColl(bm.topo, bm.mode, sizes, bm.op)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bm.name, err)
		}
		s.Name = bm.name
		series = append(series, s)
		hopRows[bm.name] = hops
		if bm.name == "Bcast_2level_gw" {
			awareRelays = relays
		}
		if bm.mode == mpi.CollHier {
			// Gateway hops as a series of their own: the acceptance
			// criterion ("aware crosses strictly fewer gateway hops than
			// oblivious") rides the same regression gate as the timings.
			// The point value is a message count, not microseconds.
			hs := &stats.Series{Name: "GwHops_" + bm.name}
			for _, size := range sizes {
				hs.Add(size, vtime.Duration(hops[size])*vtime.Microsecond)
			}
			series = append(series, hs)
		}
	}

	// Relay pipelining on the longest routed pair: a0 (rank 0) to c2
	// (rank 8) crosses all four gateways.
	relaySizes := []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	relaySeries := func(name string, pipelined bool) (*stats.Series, error) {
		s := &stats.Series{Name: name}
		for _, size := range relaySizes {
			sess, err := cluster.Build(gatewayTopo())
			if err != nil {
				return nil, err
			}
			for _, rk := range sess.Ranks {
				rk.ChMad.RelayPipelining = pipelined
			}
			one, err := pingPong(sess, 0, 8, size)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, one.Points...)
		}
		return s, nil
	}
	piped, err := relaySeries("Relay_pipelined", true)
	if err != nil {
		return nil, err
	}
	stored, err := relaySeries("Relay_storefwd", false)
	if err != nil {
		return nil, err
	}
	series = append(series, piped, stored)

	res := render("gateway",
		"Extension X5: cost-model routing on a bridged 3-cluster topology (2 TCP bridges, no common network)",
		'a', series)

	var b strings.Builder
	b.WriteString(res.Text)
	b.WriteString("\nGateway hops per operation (relayed messages, 64K payload):\n")
	fmt.Fprintf(&b, "%-26s %14s\n", "series", "gateway hops")
	for _, bm := range benches {
		fmt.Fprintf(&b, "%-26s %14d\n", bm.name, hopRows[bm.name][64<<10])
	}
	b.WriteString("\n")
	b.WriteString(stats.RelayTable(
		"Gateway load, two-level Bcast at 256K (gateway-aware leaders)", awareRelays))
	res.Text = b.String()
	return res, nil
}
