package mpi

// Schedule fingerprints: every collective compiler's output, pinned step
// for step. The test compiles every operation under every forced
// algorithm family and every CollMode, on synthetic hierarchies (no
// simulator), over two datatypes, several counts, both extreme roots and
// every rank, and hashes a canonical serialization of each schedule into
// one sha256 per (shape, selection, operation, count) row. Any change to
// a compiled schedule — a step moved between rounds, a different peer, a
// buffer aliased differently, a lost trace tag — changes its row.
//
// Regenerate testdata/schedules.golden with
//
//	go test ./internal/mpi -run TestScheduleFingerprints -update-schedfp
//
// only when a schedule change is intended, and justify every moved row.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
	"unsafe"
)

var updateSchedFP = flag.Bool("update-schedfp", false, "rewrite testdata/schedules.golden")

const schedGolden = "testdata/schedules.golden"

// fpShape is one synthetic machine: a world size and its hierarchy (nil:
// none installed).
type fpShape struct {
	name string
	n    int
	hier *Hierarchy
}

func fpLink(net string, segBytes int, sharedMBs float64) Link {
	return Link{Net: net, LatencyUS: 100, BandwidthMBs: 10, SegmentBytes: segBytes, SharedMBs: sharedMBs}
}

func fpShapes() []fpShape {
	intra := func(k int) []Link {
		l := make([]Link, k)
		for i := range l {
			l[i] = Link{Net: fmt.Sprintf("sci%d", i), LatencyUS: 5, BandwidthMBs: 80}
		}
		return l
	}
	names := func(k int) []string {
		s := make([]string, k)
		for i := range s {
			s[i] = fmt.Sprintf("sci%d", i)
		}
		return s
	}
	return []fpShape{
		{name: "nohier", n: 5},
		{name: "onecluster", n: 4, hier: &Hierarchy{
			ClusterOf: []int{0, 0, 0, 0}, ClusterNames: names(1), Intra: intra(1),
		}},
		{name: "interleaved", n: 7, hier: &Hierarchy{
			ClusterOf: []int{0, 1, 0, 1, 0, 1, 0}, ClusterNames: names(2), Intra: intra(2),
			Inter: fpLink("wan", 1024, 0),
		}},
		{name: "capped", n: 6, hier: &Hierarchy{
			ClusterOf: []int{0, 0, 0, 1, 1, 1}, ClusterNames: names(2), Intra: intra(2),
			Inter: fpLink("wan", 4096, 10),
		}},
		// The bridged triangle: a2-b1 (gwAB), b2-c1 (gwBC), a1-c0 (gwCA);
		// the elected leaders are gateway ranks, not the lowest ones.
		{name: "triangle", n: 9, hier: &Hierarchy{
			ClusterOf: []int{0, 0, 0, 1, 1, 1, 2, 2, 2}, ClusterNames: names(3), Intra: intra(3),
			Inter:      fpLink("wan", 512, 0),
			Leaders:    []int{2, 4, 7},
			LeaderSets: [][]int{{2, 1}, {4, 5}, {7, 6}},
			LeaderGateways: [][]string{
				{"gwAB", "gwCA"}, {"gwAB", "gwBC"}, {"gwBC", "gwCA"},
			},
		}},
		// Uneven clusters {0,3,4,7}, {1,5}, {2,6} with leader sets of
		// widths 3, 1 and 2, one gateway-less co-leader.
		{name: "uneven", n: 8, hier: &Hierarchy{
			ClusterOf: []int{0, 1, 2, 0, 0, 1, 2, 0}, ClusterNames: names(3), Intra: intra(3),
			Inter:      fpLink("wan", 1400, 0),
			Leaders:    []int{3, 5, 2},
			LeaderSets: [][]int{{3, 0, 7}, {5}, {2, 6}},
			LeaderGateways: [][]string{
				{"g01", "g02", ""}, {"g01"}, {"g02", ""},
			},
		}},
	}
}

// fpSelection is one way of steering chooseAlgo: a forced family (the
// autotuner's hook) or a CollMode.
type fpSelection struct {
	name  string
	force string // algorithm name; "" selects by mode
	mode  CollMode
}

func fpSelections() []fpSelection {
	var sels []fpSelection
	for _, a := range []string{"flat", "ring", "2level", "2level-seg", "2level-ring", "2level-multi"} {
		sels = append(sels, fpSelection{name: "force:" + a, force: a})
	}
	modes := []string{"auto", "flat", "hier", "ring", "hierring", "hiermulti"}
	for m, name := range modes {
		sels = append(sels, fpSelection{name: "mode:" + name, mode: CollMode(m)})
	}
	return sels
}

// fpPayload mirrors the payload size each Ixxx entry hands chooseAlgo.
func fpPayload(kind collKind, n, count int, dt Datatype) int {
	switch kind {
	case kindBarrier:
		return 0
	case kindAlltoall, kindReduceScatter:
		return n * count * dt.Size()
	default:
		return count * dt.Size()
	}
}

// fpWriter serializes schedules canonically: buffers are named by the
// order their backing arrays are first seen, their offset from the
// array's end and their length, so two compilers that alias staging the
// same way serialize the same whatever the addresses.
type fpWriter struct {
	h   hash.Hash
	ids map[uintptr]int
}

func (w *fpWriter) buf(b []byte) {
	if cap(b) == 0 {
		fmt.Fprint(w.h, " -")
		return
	}
	end := uintptr(unsafe.Pointer(unsafe.SliceData(b))) + uintptr(cap(b))
	id, ok := w.ids[end]
	if !ok {
		id = len(w.ids)
		w.ids[end] = id
	}
	fmt.Fprintf(w.h, " b%d@%d+%d", id, cap(b), len(b))
}

func (w *fpWriter) schedule(sch *schedule) {
	w.ids = make(map[uintptr]int)
	fmt.Fprintf(w.h, "S %s fin=%v\n", sch.name, sch.fin != nil)
	for _, rd := range sch.rounds {
		fmt.Fprintf(w.h, "R %d %q\n", rd.leader1, rd.gw)
		for _, st := range rd.steps {
			fmt.Fprintf(w.h, "%d %d", st.kind, st.peer)
			w.buf(st.buf)
			w.buf(st.dst)
			w.buf(st.src)
			fmt.Fprintf(w.h, " %d\n", st.count)
		}
	}
}

// fpRow compiles one (shape, selection, operation, count) row over both
// datatypes, both roots (rooted operations only) and every rank, and
// returns its hash, or "PANIC" when any compile panicked.
func fpRow(procs []*Process, sel fpSelection, kind collKind, count int) (row string) {
	defer func() {
		if recover() != nil {
			row = "PANIC"
		}
	}()
	n := len(procs)
	for _, p := range procs {
		p.forcedAlgo, p.collMode = nil, sel.mode
		if sel.force != "" {
			a, _ := algoByName(sel.force)
			p.forcedAlgo = &a
		}
	}
	roots := []int{0}
	if kind == kindBcast || kind == kindReduce || kind == kindGather {
		roots = []int{0, n - 1}
	}
	w := &fpWriter{h: sha256.New()}
	for _, dt := range []Datatype{Byte, Vector(2, 1, 2, Byte)} {
		send := make([]byte, n*count*dt.Extent())
		recv := make([]byte, n*count*dt.Extent())
		for _, root := range roots {
			for _, p := range procs {
				c := p.World
				a := collArgs{send: send, recv: recv, count: count, dt: dt, op: OpSum, root: root}
				w.schedule(c.compile(kind, fpPayload(kind, n, count, dt), a))
			}
		}
	}
	return hex.EncodeToString(w.h.Sum(nil))
}

func TestScheduleFingerprints(t *testing.T) {
	var got []string
	for _, sh := range fpShapes() {
		procs := make([]*Process, sh.n)
		for r := range procs {
			procs[r] = NewProcess(nil, nil, r, sh.n, nil, nil)
			procs[r].SetHierarchy(sh.hier)
		}
		for _, sel := range fpSelections() {
			for kind := collKind(0); kind < numCollKinds; kind++ {
				for _, count := range []int{0, 1, 5, 700, 5000} {
					got = append(got, fmt.Sprintf("%s %s %s %d %s",
						sh.name, sel.name, kindNames[kind], count, fpRow(procs, sel, kind, count)))
				}
			}
		}
	}
	if *updateSchedFP {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schedGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(schedGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d rows, the compilers produced %d", schedGolden, len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 20 {
				t.Errorf("schedule row changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... %d changed rows in all", bad)
	}
}
