package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf encodes the protobuf subset a canned profile needs.
type pbuf struct{ b []byte }

func (p *pbuf) varint(num int, v uint64) *pbuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pbuf) bytes(num int, data []byte) *pbuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pbuf) packed(num int, vs ...uint64) *pbuf {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	return p.bytes(num, in)
}

// cannedProfile builds a gzipped CPU profile. Each location holds one or
// more function names, innermost (inlined) first; each sample lists
// location ids leaf first with its CPU nanoseconds.
func cannedProfile(t *testing.T, locs [][]string, samples []struct {
	locs []uint64
	ns   int64
}) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	fnID := map[string]uint64{}
	var p pbuf
	p.bytes(1, (&pbuf{}).varint(1, 1).varint(2, 2).b)
	p.bytes(1, (&pbuf{}).varint(1, 3).varint(2, 4).b)
	for i, s := range samples {
		sp := &pbuf{}
		if i%2 == 0 { // exercise both packed and unpacked repeated fields
			sp.packed(1, s.locs...)
		} else {
			for _, l := range s.locs {
				sp.varint(1, l)
			}
		}
		sp.packed(2, 1, uint64(s.ns))
		p.bytes(2, sp.b)
	}
	for i, fns := range locs {
		lp := (&pbuf{}).varint(1, uint64(i+1)).varint(3, 0x1000+uint64(i))
		for _, fn := range fns {
			id, ok := fnID[fn]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[fn] = id
				strs = append(strs, fn)
				p.bytes(5, (&pbuf{}).varint(1, id).varint(2, uint64(len(strs)-1)).b)
			}
			lp.bytes(4, (&pbuf{}).varint(1, id).varint(2, 42).b)
		}
		p.bytes(4, lp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeCannedProfile(t *testing.T) {
	locs := [][]string{
		{"runtime.selectgo"},                           // 1
		{"mpichmad/internal/vtime.(*Scheduler).Sleep"}, // 2
		{"mpichmad/internal/marcel.(*Proc).Compute"},   // 3
		{"main.main"}, // 4
		// 5: UnpackBuf inlined into its caller, innermost first.
		{"mpichmad/internal/mpi.UnpackBuf", "mpichmad/internal/core.(*Device).land"},
		{"runtime.scanobject"},                             // 6
		{"runtime.gcBgMarkWorker"},                         // 7
		{"runtime.futex"},                                  // 8
		{"bytes.Equal"},                                    // 9
		{"main.(*collJob).run"},                            // 10
		{"mpichmad/internal/cluster.(*Session).Run.func1"}, // 11
		{"mpichmad/internal/stats.(*Series).Add"},          // 12
		{"runtime._GC"},                                    // 13
		{"mpichmad/internal/route/sub.Walk"},               // 14: sub-package
	}
	samples := []struct {
		locs []uint64
		ns   int64
	}{
		{[]uint64{1, 2, 3, 4}, 10e6},  // vtime: innermost repo frame under runtime code
		{[]uint64{5, 11, 4}, 20e6},    // mpi: inlined callee comes before its caller
		{[]uint64{6, 7}, 30e6},        // gc worker
		{[]uint64{8}, 40e6},           // runtime
		{[]uint64{9, 10, 11, 4}, 5e6}, // bench: main frame inside a cluster callback
		{[]uint64{12, 4}, 6e6},        // other repo package
		{[]uint64{13}, 7e6},           // gc pseudo-frame
		{[]uint64{14}, 8e6},           // route
		{[]uint64{2, 3}, 1e6},         // vtime again
	}
	got, err := parseCPUProfile(cannedProfile(t, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(samples))
	}
	if s := got[1].stack; len(s) != 4 || s[0] != "mpichmad/internal/mpi.UnpackBuf" || s[1] != "mpichmad/internal/core.(*Device).land" {
		t.Fatalf("inlined stack = %q", s)
	}
	by := attribute(got)
	want := map[string]int64{
		"vtime": 11e6, "mpi": 20e6, "gc": 37e6, "runtime": 40e6,
		"bench": 5e6, "other": 6e6, "route": 8e6,
	}
	var total, sum int64
	for _, s := range samples {
		total += s.ns
	}
	for b, ns := range by {
		sum += ns
		if ns != want[b] {
			t.Errorf("bucket %s = %d ns, want %d", b, ns, want[b])
		}
	}
	for b, ns := range want {
		if by[b] != ns {
			t.Errorf("bucket %s = %d ns, want %d", b, by[b], ns)
		}
	}
	if sum != total {
		t.Errorf("buckets sum to %d ns, profile total %d", sum, total)
	}
}

func TestBucketsAreKnown(t *testing.T) {
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	for _, stack := range [][]string{
		nil,
		{"mpichmad/internal/lint.Run"},
		{"mpichmad/internal/core.New"},
		{"runtime.bgsweep"},
	} {
		if b := bucketOf(stack); !known[b] {
			t.Errorf("bucketOf(%q) = %q, not a reported bucket", stack, b)
		}
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	sink = x
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
	var total, sum int64
	for _, s := range samples {
		total += s.ns
	}
	for _, ns := range attribute(samples) {
		sum += ns
	}
	if sum != total || total <= 0 {
		t.Fatalf("buckets sum to %d ns, profile total %d", sum, total)
	}
}

var sink uint64

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0xff}) // field 1, length past the end
	zw.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated profile parsed")
	}
}
