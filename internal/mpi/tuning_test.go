package mpi_test

// Tests of the MPI_Init autotuner: the timed sweep must be deterministic
// in the topology, agree across ranks, and actually install a crossover
// table that chooseAlgo consults.

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/netsim"
)

var updateTune = flag.Bool("update-tune", false, "rewrite testdata/tune.golden")

// autotunedTables builds a topology with Autotune on, runs an empty rank
// program, and returns every rank's crossover-table snapshot.
func autotunedTables(t *testing.T, topo cluster.Topology) [][]mpi.TuneChoice {
	t.Helper()
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	out := make([][]mpi.TuneChoice, len(sess.Ranks))
	for i, rk := range sess.Ranks {
		out[i] = rk.MPI.TuneSnapshot()
	}
	return out
}

// TestAutotuneDeterministic: the same topology always yields the same
// crossover table — virtual time has no noise, so two sweeps must agree
// bracket for bracket — and all ranks of one job install identical tables.
func TestAutotuneDeterministic(t *testing.T) {
	first := autotunedTables(t, twoClusterTopo(3, 3))
	second := autotunedTables(t, twoClusterTopo(3, 3))
	if len(first[0]) == 0 {
		t.Fatal("autotuner installed an empty table on a multi-cluster topology")
	}
	for r := 1; r < len(first); r++ {
		if !reflect.DeepEqual(first[r], first[0]) {
			t.Fatalf("rank %d table differs from rank 0:\n%v\nvs\n%v", r, first[r], first[0])
		}
	}
	if !reflect.DeepEqual(first[0], second[0]) {
		t.Fatalf("same topology produced different tables:\n%v\nvs\n%v", first[0], second[0])
	}
}

// TestAutotuneSingleClusterStillTunes: on a uniform fabric the only
// choice is tree-vs-ring Allreduce; the sweep must still run and produce
// a table covering it.
func TestAutotuneSingleClusterStillTunes(t *testing.T) {
	tables := autotunedTables(t, nNodeTopo(6, "sisci"))
	found := false
	for _, c := range tables[0] {
		if c.Op == "Allreduce" {
			found = true
		}
	}
	if !found {
		t.Fatalf("single-cluster sweep produced no Allreduce brackets: %v", tables[0])
	}
}

// TestAutotuneMeasuresClassSwitchPoints: on a heterogeneous topology the
// init sweep's per-device-class probes measure an eager/rendez-vous
// threshold for every represented class, every rank installs the same
// values, and the thresholds surface as SwitchPoint rows of the
// crossover-table snapshot.
func TestAutotuneMeasuresClassSwitchPoints(t *testing.T) {
	topo := twoClusterTopo(3, 3)
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(rank int, comm *mpi.Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := sess.Ranks[0].MPI.ClassSwitchPoints()
	for _, class := range []string{"san", "wan"} {
		if want[class] <= 0 {
			t.Errorf("no measured threshold for class %q: %v", class, want)
		}
	}
	for _, rk := range sess.Ranks[1:] {
		if !reflect.DeepEqual(rk.MPI.ClassSwitchPoints(), want) {
			t.Fatalf("rank %d class thresholds %v differ from rank 0's %v",
				rk.Rank, rk.MPI.ClassSwitchPoints(), want)
		}
	}
	rows := 0
	for _, tc := range sess.Ranks[0].MPI.TuneSnapshot() {
		if tc.Op == "SwitchPoint" {
			rows++
			if want[tc.Algo] != tc.MaxBytes {
				t.Errorf("snapshot row %v does not match installed threshold %d", tc, want[tc.Algo])
			}
		}
	}
	if rows != len(want) {
		t.Errorf("snapshot has %d SwitchPoint rows, want %d", rows, len(want))
	}
}

// TestSwitchPointTuneRoundTrip: SwitchPoint rows survive the persistence
// path — LoadTuneTable installs them as per-class thresholds and
// TuneSnapshot exports them back byte-identically.
func TestSwitchPointTuneRoundTrip(t *testing.T) {
	table := []mpi.TuneChoice{
		{Op: "SwitchPoint", MaxBytes: 16 << 10, Algo: "san"},
		{Op: "SwitchPoint", MaxBytes: 64 << 10, Algo: "wan"},
	}
	p := mpi.NewProcess(nil, nil, 0, 1, nil, nil)
	if err := p.LoadTuneTable(table); err != nil {
		t.Fatal(err)
	}
	got := p.ClassSwitchPoints()
	if got["san"] != 16<<10 || got["wan"] != 64<<10 {
		t.Fatalf("ClassSwitchPoints = %v, want san=16K wan=64K", got)
	}
	snap := p.TuneSnapshot()
	if !reflect.DeepEqual(snap, table) {
		t.Fatalf("TuneSnapshot = %v, want the loaded table %v", snap, table)
	}
	p2 := mpi.NewProcess(nil, nil, 0, 1, nil, nil)
	if err := p2.LoadTuneTable(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2.ClassSwitchPoints(), got) {
		t.Fatalf("reloaded thresholds %v differ from %v", p2.ClassSwitchPoints(), got)
	}
}

// TestValidateTuneChoicesRejectsBadSwitchRows: the persistence sanity
// check must reject SwitchPoint rows naming an unknown device class or a
// non-positive threshold, so a corrupted cache cannot poison sessions.
func TestValidateTuneChoicesRejectsBadSwitchRows(t *testing.T) {
	bad := [][]mpi.TuneChoice{
		{{Op: "SwitchPoint", MaxBytes: 8 << 10, Algo: "quantum"}},
		{{Op: "SwitchPoint", MaxBytes: 0, Algo: "san"}},
		{{Op: "SwitchPoint", MaxBytes: -1, Algo: "wan"}},
	}
	for _, table := range bad {
		if err := mpi.ValidateTuneChoices(table); err == nil {
			t.Errorf("ValidateTuneChoices(%v) = nil, want error", table)
		}
	}
	good := []mpi.TuneChoice{{Op: "SwitchPoint", MaxBytes: 8 << 10, Algo: "smp"}}
	if err := mpi.ValidateTuneChoices(good); err != nil {
		t.Errorf("ValidateTuneChoices(%v) = %v, want nil", good, err)
	}
}

// TestRelayWindowTuneRoundTrip: RelayWindow rows survive the persistence
// path — LoadTuneTable installs them as per-backbone relay windows and
// TuneSnapshot exports them back byte-identically, in network-name order.
func TestRelayWindowTuneRoundTrip(t *testing.T) {
	table := []mpi.TuneChoice{
		{Op: "RelayWindow", MaxBytes: 12, Algo: "gw01"},
		{Op: "RelayWindow", MaxBytes: 24, Algo: "wan"},
	}
	p := mpi.NewProcess(nil, nil, 0, 1, nil, nil)
	if err := p.LoadTuneTable(table); err != nil {
		t.Fatal(err)
	}
	got := p.RelayWindows()
	if got["gw01"] != 12 || got["wan"] != 24 || len(got) != 2 {
		t.Fatalf("RelayWindows = %v, want gw01=12 wan=24", got)
	}
	snap := p.TuneSnapshot()
	if !reflect.DeepEqual(snap, table) {
		t.Fatalf("TuneSnapshot = %v, want the loaded table %v", snap, table)
	}
	p2 := mpi.NewProcess(nil, nil, 0, 1, nil, nil)
	if err := p2.LoadTuneTable(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2.RelayWindows(), got) {
		t.Fatalf("reloaded windows %v differ from %v", p2.RelayWindows(), got)
	}
	bad := [][]mpi.TuneChoice{
		{{Op: "RelayWindow", MaxBytes: 0, Algo: "wan"}},
		{{Op: "RelayWindow", MaxBytes: -3, Algo: "wan"}},
		{{Op: "RelayWindow", MaxBytes: 8, Algo: ""}},
	}
	for _, tbl := range bad {
		if err := mpi.ValidateTuneChoices(tbl); err == nil {
			t.Errorf("ValidateTuneChoices(%v) = nil, want error", tbl)
		}
	}
}

// TestAutotunedCollectivesStayCorrect: collectives dispatched through the
// measured table (CollAuto after Autotune) still compute correct results
// on a contended-backbone topology — the table changes selection, never
// semantics.
func TestAutotunedCollectivesStayCorrect(t *testing.T) {
	topo := twoClusterTopo(3, 2)
	// Cap the backbone so the sweep times real trunk contention.
	wan := netsim.FastEthernetTCP()
	wan.NetworkBandwidth = wan.Bandwidth
	for i := range topo.Networks {
		if topo.Networks[i].Name == "wan" {
			topo.Networks[i].Params = &wan
		}
	}
	topo.Autotune = true
	sess, err := cluster.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	const n, cnt = 5, 1000
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		in := make([]int64, cnt)
		for i := range in {
			in[i] = int64(rank*cnt + i)
		}
		out := make([]byte, 8*cnt)
		if err := comm.Allreduce(mpi.Int64Bytes(in), out, cnt, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		got := mpi.BytesInt64(out)
		for i := 0; i < cnt; i++ {
			want := int64(0)
			for r := 0; r < n; r++ {
				want += int64(r*cnt + i)
			}
			if got[i] != want {
				return fmt.Errorf("rank %d: allreduce[%d] = %d, want %d", rank, i, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// bridgedTriangle is the multi-gateway machine of the multileader
// experiment: three islands, each bridged to both others by its own
// gateway pair (a2-b1, b2-c1, a1-c0), so every leader set has two
// members.
func bridgedTriangle() cluster.Topology {
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
			{Name: "gwCA", Protocol: "tcp", Nodes: []string{"a1", "c0"}},
		},
		Forwarding: true,
	}
}

// TestAutotuneTableGolden pins the measured crossover tables of three
// machines — a private backbone, a capped trunk and the multi-gateway
// triangle — row for row. The sweep is deterministic, so any change to a
// candidate list, its order or a probed schedule shows up here directly.
// Regenerate with -update-tune only for an intended selection change.
func TestAutotuneTableGolden(t *testing.T) {
	const golden = "testdata/tune.golden"
	var got []string
	for _, m := range []struct {
		name string
		topo cluster.Topology
	}{
		{"twoCluster(3,3)", twoClusterTopo(3, 3)},
		{"cappedTwoCluster(4,4)", cappedTwoCluster(4, 4)},
		{"bridgedTriangle", bridgedTriangle()},
	} {
		for _, tc := range autotunedTables(t, m.topo)[0] {
			got = append(got, fmt.Sprintf("%s %s %d %s", m.name, tc.Op, tc.MaxBytes, tc.Algo))
		}
	}
	if *updateTune {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("autotuned tables changed:\ngot\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
