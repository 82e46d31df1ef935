// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (raw Madeleine), Figures 6–8 (ch_mad vs
// baselines on TCP, SCI, BIP), Figure 9 (multi-protocol polling overhead),
// Table 2 (ch_mad summary), plus the ablations and the §6 forwarding
// extension. Used by cmd/experiments and by the top-level benchmarks.
package experiments

import (
	"fmt"
	"strings"

	"mpichmad/internal/baselines"
	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/mpptest"
	"mpichmad/internal/netsim"
	"mpichmad/internal/stats"
)

// Result is one regenerated artifact: rendered text plus the raw series
// for programmatic checks.
type Result struct {
	ID     string
	Title  string
	Text   string
	Series []*stats.Series
	// metric is the point value the text tabulates the series in:
	// transfer time or bandwidth. CSV emits the same one.
	metric func(stats.Point) float64
}

// CSV renders the series as comma-separated values, in the unit the
// text tabulates them in, behind a "# title (id)" comment line.
func (r *Result) CSV() string {
	return fmt.Sprintf("# %s (%s)\n", r.Title, r.ID) + stats.CSV(r.Series, r.metric)
}

// BenchSeries is one series in the schema of the BENCH_*.json files:
// its name and its points in virtual microseconds. Point values of
// count-valued series (gateway hops, queue depths) are encoded one unit
// per microsecond. cmd/benchcheck reads the same schema.
type BenchSeries struct {
	Name   string       `json:"name"`
	Points []BenchPoint `json:"points"`
}

// BenchPoint is one size of a BenchSeries.
type BenchPoint struct {
	SizeBytes int     `json:"size_bytes"`
	VirtualUS float64 `json:"virtual_us"`
}

// Bench returns the result's series in the BENCH_*.json schema.
func (r *Result) Bench() []BenchSeries {
	out := make([]BenchSeries, 0, len(r.Series))
	for _, s := range r.Series {
		bs := BenchSeries{Name: s.Name}
		for _, p := range s.Points {
			bs.Points = append(bs.Points, BenchPoint{SizeBytes: p.Size, VirtualUS: p.LatencyUS()})
		}
		out = append(out, bs)
	}
	return out
}

// protoTopo returns the mono-protocol two-node ch_mad topology used for
// the paper's per-network curves ("those figures were obtained by
// compiling the device in a mono-protocol fashion", §5).
func protoTopo(protocol string) cluster.Topology {
	return cluster.TwoNodes(protocol)
}

// multiTopo returns the Fig. 9 topology: SCI and TCP both connecting the
// two nodes; traffic routes over SCI while the TCP polling thread idles.
func multiTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{{Name: "n0", Procs: 1}, {Name: "n1", Procs: 1}},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "n1"}},
			{Name: "tcp", Protocol: "tcp", Nodes: []string{"n0", "n1"}},
		},
	}
}

// Table1 regenerates Table 1: raw Madeleine latency (4 B) and bandwidth
// (8 MB) for TCP, BIP and SISCI.
func Table1() (*Result, error) {
	type row struct {
		params  netsim.Params
		wantLat float64
		wantBW  float64
	}
	rows := []row{
		{netsim.FastEthernetTCP(), 121, 11.2},
		{netsim.MyrinetBIP(), 9.2, 122},
		{netsim.SCISISCI(), 4.4, 82.6},
	}
	var b strings.Builder
	b.WriteString("# Table 1: raw Madeleine latency and bandwidth\n")
	fmt.Fprintf(&b, "%-14s %14s %12s %18s %14s\n", "protocol", "latency(us)", "paper(us)", "bandwidth(MB/s)", "paper(MB/s)")
	for _, r := range rows {
		lat, err := mpptest.RawMadeleine("raw", r.params, []int{4}, mpptest.Config{})
		if err != nil {
			return nil, err
		}
		bw, err := mpptest.RawMadeleine("raw", r.params, []int{8 * netsim.MB}, mpptest.Config{Iters: 1})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-14s %14.1f %12.1f %18.1f %14.1f\n",
			r.params.Protocol+"/"+r.params.Network,
			lat.Points[0].LatencyUS(), r.wantLat,
			bw.Points[0].BandwidthMBs(), r.wantBW)
	}
	return &Result{ID: "table1", Title: "Table 1", Text: b.String()}, nil
}

// figSizes is the x-axis of a figure's part: 'a' is the transfer-time
// sweep (1 B–1 KB), 'b' the bandwidth sweep (1 B–1 MB).
func figSizes(part byte) []int {
	if part == 'b' {
		return stats.Sizes1B1MB()
	}
	return stats.Sizes1B1KB()
}

// figSweep measures ch_mad and raw Madeleine over a size sweep on one
// protocol and appends the given reference models.
func figSweep(protocol string, sizes []int, refs ...*baselines.ReferenceModel) ([]*stats.Series, error) {
	params, _ := netsim.ByProtocol(protocol)
	chmad, err := mpptest.MPIPingPong("ch_mad", protoTopo(protocol), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	raw, err := mpptest.RawMadeleine("raw_Madeleine", params, sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	series := []*stats.Series{chmad, raw}
	for _, m := range refs {
		series = append(series, m.Series(sizes))
	}
	return series, nil
}

// Fig6 regenerates Figure 6: ch_mad vs ch_p4 vs raw Madeleine on
// TCP/Fast-Ethernet. part is 'a' (transfer time, 1 B–1 KB) or 'b'
// (bandwidth, 1 B–1 MB).
func Fig6(part byte) (*Result, error) {
	sizes := figSizes(part)
	chmad, err := mpptest.MPIPingPong("ch_mad", protoTopo("tcp"), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	p4topo := protoTopo("tcp")
	p4topo.Device = "ch_p4"
	chp4, err := mpptest.MPIPingPong("ch_p4", p4topo, sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	raw, err := mpptest.RawMadeleine("raw_Madeleine", netsim.FastEthernetTCP(), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	series := []*stats.Series{chmad, chp4, raw}
	return render("fig6"+string(part), "Figure 6: TCP/Fast-Ethernet", part, series), nil
}

// Fig7 regenerates Figure 7: ch_mad vs ScaMPI vs SCI-MPICH vs raw
// Madeleine on SISCI/SCI.
func Fig7(part byte) (*Result, error) {
	sizes := figSizes(part)
	series, err := figSweep("sisci", sizes, baselines.ScaMPI(), baselines.SCIMPICH())
	if err != nil {
		return nil, err
	}
	return render("fig7"+string(part), "Figure 7: SISCI/SCI", part, series), nil
}

// Fig8 regenerates Figure 8: ch_mad vs MPI-GM vs MPICH-PM vs raw
// Madeleine on BIP/Myrinet.
func Fig8(part byte) (*Result, error) {
	sizes := figSizes(part)
	series, err := figSweep("bip", sizes, baselines.MPIGM(), baselines.MPICHPM())
	if err != nil {
		return nil, err
	}
	return render("fig8"+string(part), "Figure 8: BIP/Myrinet", part, series), nil
}

// Fig9 regenerates Figure 9: SCI performance with the SCI polling thread
// alone versus with an additional (idle) TCP polling thread.
func Fig9(part byte) (*Result, error) {
	sizes := figSizes(part)
	alone, err := mpptest.MPIPingPong("SCI_thread_only", protoTopo("sisci"), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	both, err := mpptest.MPIPingPong("SCI_thread_+_TCP_thread", multiTopo(), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	return render("fig9"+string(part), "Figure 9: multi-protocol polling overhead on SCI", part,
		[]*stats.Series{alone, both}), nil
}

// Table2 regenerates Table 2: ch_mad 0 B / 4 B latency and 8 MB bandwidth
// per network.
func Table2() (*Result, error) {
	type row struct {
		protocol string
		paper0   float64
		paper4   float64
		paperBW  float64
	}
	rows := []row{
		{"tcp", 130, 148.7, 11.2},
		{"bip", 16.9, 18.9, 115},
		{"sisci", 13, 20, 82.5},
	}
	var b strings.Builder
	b.WriteString("# Table 2: ch_mad summary of performance\n")
	fmt.Fprintf(&b, "%-8s %11s %10s %11s %10s %12s %12s\n",
		"proto", "lat0B(us)", "paper", "lat4B(us)", "paper", "bw8MB(MB/s)", "paper")
	for _, r := range rows {
		s, err := mpptest.MPIPingPong("ch_mad", protoTopo(r.protocol),
			[]int{0, 4, 8 * netsim.MB}, mpptest.Config{Iters: 2})
		if err != nil {
			return nil, err
		}
		p0, _ := s.At(0)
		p4, _ := s.At(4)
		p8, _ := s.At(8 * netsim.MB)
		fmt.Fprintf(&b, "%-8s %11.1f %10.1f %11.1f %10.1f %12.1f %12.1f\n",
			r.protocol, p0.LatencyUS(), r.paper0, p4.LatencyUS(), r.paper4,
			p8.BandwidthMBs(), r.paperBW)
	}
	return &Result{ID: "table2", Title: "Table 2", Text: b.String()}, nil
}

// AblationSwitchPoint (X1) sweeps the ch_mad eager->rendez-vous threshold
// on the SCI+TCP configuration, showing why §4.2.2 elects SCI's 8 KB.
func AblationSwitchPoint() (*Result, error) {
	msgSizes := []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	var series []*stats.Series
	for _, sp := range []int{2 << 10, 8 << 10, 64 << 10} {
		sp := sp
		s, err := mpptest.MPIPingPong(fmt.Sprintf("switch=%s", stats.SizeLabel(sp)),
			multiTopo(), msgSizes, mpptest.Config{
				Mutate: func(sess *cluster.Session) {
					for _, rk := range sess.Ranks {
						rk.ChMad.SetSwitchPoint(sp)
					}
				},
			})
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return render("ablation-switch",
		"Ablation X1: switch-point election on SCI+TCP (unique threshold forced by MPID_Device)",
		'b', series), nil
}

// AblationHeaderSplit (X2) compares the §4.2.2 header/body split against
// the naive constant-size MPID_PKT_MAX_DATA_SIZE eager buffer on SCI
// (padding waste plus a sender-side copy).
func AblationHeaderSplit() (*Result, error) {
	msgSizes := []int{64, 256, 1 << 10, 4 << 10, 8 << 10}
	split, err := mpptest.MPIPingPong("header/body split", protoTopo("sisci"), msgSizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	mono, err := mpptest.MPIPingPong("monolithic buffer", protoTopo("sisci"), msgSizes, mpptest.Config{
		Mutate: func(sess *cluster.Session) {
			for _, rk := range sess.Ranks {
				rk.ChMad.MonolithicEager = true
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return render("ablation-split",
		"Ablation X2: eager header/body split vs monolithic padded buffer (SCI)",
		'a', []*stats.Series{split, mono}), nil
}

// Forwarding (X3) measures the §6 gateway store-and-forward extension:
// latency SCI->gateway->Myrinet versus the direct SCI path.
func Forwarding() (*Result, error) {
	sizes := []int{4, 256, 4 << 10, 64 << 10, 1 << 20}
	direct, err := mpptest.MPIPingPong("direct SCI", protoTopo("sisci"), sizes, mpptest.Config{})
	if err != nil {
		return nil, err
	}
	topo := cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "n0", Procs: 1}, {Name: "gw", Procs: 1}, {Name: "n1", Procs: 1},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"n0", "gw"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"gw", "n1"}},
		},
		Forwarding: true,
	}
	sess, err := cluster.Build(topo)
	if err != nil {
		return nil, err
	}
	// Rank 1 is the gateway: it only forwards.
	fwd, err := pingPong(sess, 0, 2, sizes...)
	if err != nil {
		return nil, err
	}
	fwd.Name = "SCI->gw->Myrinet"
	return render("forwarding",
		"Extension X3: heterogeneous forwarding through a gateway node (§6 future work)",
		'a', []*stats.Series{direct, fwd}), nil
}

// HierCollectives (X4) compares the flat (topology-blind), two-level
// (hierarchy-aware) and ring collective algorithms on a two-cluster
// heterogeneous topology: two 4-node SCI islands joined by a TCP
// backbone, with node declarations interleaved so consecutive ranks
// alternate islands (the adversarial placement for a flat binomial tree).
// Reported value is the per-operation completion time at rank 0.
//
// The *_cap series rerun the headline operations with the backbone's
// aggregate-bandwidth arbiter on (netsim.Params.NetworkBandwidth set to
// the TCP rate): every backbone crossing now queues at the shared trunk,
// so flat algorithms stop getting their many crossings for free and the
// two-level Bcast/Allreduce win on *time* from a few hundred bytes up
// (at 8 B the extra leader hop still costs ~1 us), not just on message
// count — flat Bcast pushes n/2 copies of the vector through the trunk
// where two-level pushes one. Alltoall is the honest exception:
// bundling conserves backbone bytes exactly — every (src, dst) block is
// unique — so past the setup-dominated regime both algorithms sit on the
// same trunk serialization floor and two-level only wins below a few KB
// per block. The contention table below the sweep reports the trunk
// queueing delay and peak occupancy each algorithm inflicted at the
// largest payload.
//
// Allreduce_ring is the flat bandwidth-optimal ring (reduce-scatter +
// allgather); Allreduce_ring2l_cap is its two-level form (intra-cluster
// rings around the single leader exchange) under the capped backbone.
//
// The *_ovl series measure the schedule engine's overlap: each iteration
// starts the nonblocking two-level operation, runs a chunked compute loop
// sized to the blocking two-level time at that payload, then waits; the
// reported value is the exposed (non-hidden) communication time, i.e.
// per-iteration wall time minus the injected compute.
func HierCollectives() (*Result, error) {
	sizes := []int{8, 256, 4 << 10, 64 << 10, 256 << 10}
	topo := hierTopo()
	capped := hierTopoCapped()
	benches := []struct {
		name string
		topo cluster.Topology
		mode mpi.CollMode
		op   collOp
	}{
		{"Bcast_flat", topo, mpi.CollFlat, bcast},
		{"Bcast_2level", topo, mpi.CollHier, bcast},
		{"Allreduce_flat", topo, mpi.CollFlat, allreduce},
		{"Allreduce_2level", topo, mpi.CollHier, allreduce},
		{"Allreduce_ring", topo, mpi.CollRing, allreduce},
		{"Allgather_flat", topo, mpi.CollFlat, allgather},
		{"Allgather_2level", topo, mpi.CollHier, allgather},
		{"Alltoall_flat", topo, mpi.CollFlat, alltoall},
		{"Alltoall_2level", topo, mpi.CollHier, alltoall},
		{"Bcast_flat_cap", capped, mpi.CollFlat, bcast},
		{"Bcast_2level_cap", capped, mpi.CollHier, bcast},
		{"Allreduce_flat_cap", capped, mpi.CollFlat, allreduce},
		{"Allreduce_2level_cap", capped, mpi.CollHier, allreduce},
		{"Allreduce_ring2l_cap", capped, mpi.CollHierRing, allreduce},
		{"Alltoall_flat_cap", capped, mpi.CollFlat, alltoall},
		{"Alltoall_2level_cap", capped, mpi.CollHier, alltoall},
	}
	const iters = 3
	type contention struct {
		name      string
		queueMS   float64
		peakDepth int
	}
	var contentions []contention
	var series []*stats.Series
	blocking := make(map[string]*stats.Series)
	for _, bm := range benches {
		s := &stats.Series{Name: bm.name}
		for _, size := range sizes {
			perOp, sess, err := window{topo: bm.topo, mode: bm.mode, iters: iters, size: size, op: bm.op}.run()
			if err != nil {
				return nil, err
			}
			s.Add(size, perOp)
			if size == sizes[len(sizes)-1] {
				if st := sess.Networks["wan"].Stats; st.TrunkQueueDelay > 0 || st.TrunkPeak > 0 {
					contentions = append(contentions, contention{
						name:      bm.name,
						queueMS:   st.TrunkQueueDelay.Seconds() * 1e3,
						peakDepth: st.TrunkPeak,
					})
				}
			}
		}
		blocking[bm.name] = s
		series = append(series, s)
	}

	// Nonblocking overlap: exposed communication time of the two-level
	// Allreduce and Alltoall when computation fills the collective's
	// blocking duration.
	ovls := []struct {
		name  string
		base  string
		start func(comm *mpi.Comm, size int) (*mpi.CollRequest, error)
	}{
		{"Allreduce_2level_ovl", "Allreduce_2level", func(comm *mpi.Comm, size int) (*mpi.CollRequest, error) {
			return comm.Iallreduce(make([]byte, size), make([]byte, size), size, mpi.Byte, mpi.OpMax)
		}},
		{"Alltoall_2level_ovl", "Alltoall_2level", func(comm *mpi.Comm, size int) (*mpi.CollRequest, error) {
			n := size * comm.Size()
			return comm.Ialltoall(make([]byte, n), make([]byte, n), size, mpi.Byte)
		}},
	}
	for _, ob := range ovls {
		s := &stats.Series{Name: ob.name}
		for _, size := range sizes {
			base, _ := blocking[ob.base].At(size)
			compute := base.OneWay
			overlapped := func(rk *cluster.Rank, comm *mpi.Comm, size int) error {
				const chunks = 64
				req, err := ob.start(comm, size)
				if err != nil {
					return err
				}
				for k := 0; k < chunks; k++ {
					rk.Proc.Compute(compute / chunks)
				}
				return req.Wait()
			}
			perIter, _, err := window{topo: topo, mode: mpi.CollHier, iters: iters, size: size, op: overlapped}.run()
			if err != nil {
				return nil, err
			}
			s.Add(size, max(perIter-compute, 0))
		}
		series = append(series, s)
	}
	res := render("hcoll",
		"Extension X4: flat vs two-level vs ring vs nonblocking-overlap collectives on a 2x4-rank cluster-of-clusters",
		'a', series)

	// Backbone contention table: trunk queueing inflicted at the largest
	// payload by each algorithm on the capped backbone.
	var b strings.Builder
	b.WriteString(res.Text)
	fmt.Fprintf(&b, "\nBackbone contention at %s (wan trunk capped at the TCP rate):\n",
		stats.SizeLabel(sizes[len(sizes)-1]))
	fmt.Fprintf(&b, "%-22s %18s %12s\n", "series", "queue delay(ms)", "peak depth")
	for _, ct := range contentions {
		fmt.Fprintf(&b, "%-22s %18.2f %12d\n", ct.name, ct.queueMS, ct.peakDepth)
	}

	// MPI_Init autotuner: the crossover table measured on the capped
	// topology (what CollAuto dispatches through when Topology.Autotune
	// is on).
	tuned, err := autotunedTable(capped)
	if err != nil {
		return nil, err
	}
	b.WriteString("\nAutotuned crossover table (capped backbone, measured at MPI_Init):\n")
	fmt.Fprintf(&b, "%-14s %14s %14s\n", "operation", "payload <=", "algorithm")
	for _, tc := range tuned {
		bound := "inf"
		if tc.MaxBytes < 1<<40 {
			bound = stats.SizeLabel(tc.MaxBytes)
		}
		fmt.Fprintf(&b, "%-14s %14s %14s\n", tc.Op, bound, tc.Algo)
	}
	res.Text = b.String()
	return res, nil
}

// autotunedTable runs the MPI_Init autotuner on a topology and returns
// rank 0's installed crossover table.
func autotunedTable(topo cluster.Topology) ([]mpi.TuneChoice, error) {
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		return nil, err
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		return nil, err
	}
	return sess.Ranks[0].MPI.TuneSnapshot(), nil
}

// hierTopoCapped is hierTopo with the backbone's aggregate-bandwidth
// arbiter on: the wan models one shared trunk at the TCP rate, so
// concurrent crossings queue instead of riding private per-pair pipes.
func hierTopoCapped() cluster.Topology {
	topo := hierTopo()
	wan := netsim.FastEthernetTCP()
	wan.NetworkBandwidth = wan.Bandwidth
	for i := range topo.Networks {
		if topo.Networks[i].Name == "wan" {
			topo.Networks[i].Params = &wan
		}
	}
	return topo
}

// hierTopo is the X4 benchmark topology: two SCI islands, interleaved
// rank placement, TCP backbone.
func hierTopo() cluster.Topology {
	var nodes []cluster.NodeSpec
	var a, b, all []string
	for i := 0; i < 4; i++ {
		an, bn := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		nodes = append(nodes, cluster.NodeSpec{Name: an, Procs: 1}, cluster.NodeSpec{Name: bn, Procs: 1})
		a, b = append(a, an), append(b, bn)
		all = append(all, an, bn)
	}
	return cluster.Topology{
		Nodes: nodes,
		Networks: []cluster.NetworkSpec{
			{Name: "sciA", Protocol: "sisci", Nodes: a},
			{Name: "sciB", Protocol: "sisci", Nodes: b},
			{Name: "wan", Protocol: "tcp", Nodes: all},
		},
	}
}

// render tabulates series as transfer time (part 'a') or bandwidth
// (part 'b'), the paper's two figure halves.
func render(id, title string, part byte, series []*stats.Series) *Result {
	header, unit, metric := " — transfer time", "us", stats.Point.LatencyUS
	if part != 'a' {
		header, unit, metric = " — bandwidth", "MB/s", stats.Point.BandwidthMBs
	}
	return &Result{ID: id, Title: title, Text: stats.Table(title+header, unit, series, metric),
		Series: series, metric: metric}
}

// half binds a two-part figure generator to one of its parts.
func half(fig func(part byte) (*Result, error), part byte) func() (*Result, error) {
	return func() (*Result, error) { return fig(part) }
}

// artifacts is every experiment in paper order: the id that selects it
// and the generator that regenerates it. All and ByID both read it.
var artifacts = []struct {
	id  string
	run func() (*Result, error)
}{
	{"table1", Table1},
	{"fig6a", half(Fig6, 'a')},
	{"fig6b", half(Fig6, 'b')},
	{"fig7a", half(Fig7, 'a')},
	{"fig7b", half(Fig7, 'b')},
	{"fig8a", half(Fig8, 'a')},
	{"fig8b", half(Fig8, 'b')},
	{"fig9a", half(Fig9, 'a')},
	{"fig9b", half(Fig9, 'b')},
	{"table2", Table2},
	{"ablation-switch", AblationSwitchPoint},
	{"ablation-split", AblationHeaderSplit},
	{"forwarding", Forwarding},
	{"hcoll", HierCollectives},
	{"gateway", GatewayCollectives},
	{"adaptive", AdaptiveMultipath},
	{"heteromux", HeteroMux},
	{"multileader", MultiLeader},
	{"scale", Scale},
}

// IDs lists every experiment id in paper order.
func IDs() []string {
	ids := make([]string, len(artifacts))
	for i, a := range artifacts {
		ids[i] = a.id
	}
	return ids
}

// All runs every experiment in paper order.
func All() ([]*Result, error) {
	var out []*Result
	for _, a := range artifacts {
		r, err := a.run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID runs one experiment by its id (e.g. "fig7b").
func ByID(id string) (*Result, error) {
	for _, a := range artifacts {
		if a.id == id {
			return a.run()
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
}
