package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

	"mpichmad/internal/cluster"
	"mpichmad/internal/experiments"
	"mpichmad/internal/mpi"
	"mpichmad/internal/vtime"
)

// workload is one seeded, closed-loop traffic mix on one machine: every
// rank issues its next operation as soon as its previous one returns.
type workload struct {
	name string
	why  string
	topo func() cluster.Topology
	gen  func(seed uint64, pl *payloads) (job, error)
}

// job is a workload's generated input set: every size, partner and
// payload is fixed before the session runs, so each pass of one seed
// replays identical traffic.
type job interface {
	samples() int // virtual latency samples per pass
	ops() int     // MPI operations per pass, one per rank call
	main(rank int, comm *mpi.Comm, rec *recorder) error
}

var workloads = []workload{
	{
		name: "p2p-mux",
		why:  "Sendrecv over random permutations on the SCI+BIP+TCP machine: every device class on both sides of its switch point, no collectives",
		topo: heteroTopo,
		gen:  genP2P,
	},
	{
		name: "coll-gateway",
		why:  "seeded Bcast/Allreduce/Allgather/Alltoall stream on the autotuned bridged triangle: schedules, datatypes, relay, striping and the MPI_Init sweep",
		topo: triangleTopo,
		gen:  genColl,
	},
	{
		name: "halo-scale",
		why:  "256 ranks on 16 SCI islands behind one capped TCP trunk: ring halo, long-range partners and an 8-byte Allreduce per step",
		topo: func() cluster.Topology { return experiments.ScaleTopo(16, 16) },
		gen:  genHalo,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// heteroTopo is the paper's heterogeneous machine: two dual-processor
// nodes on an SCI island, two on a Myrinet/BIP island, all four on a
// Fast-Ethernet backbone. Eight ranks, direct routes only, no autotune.
func heteroTopo() cluster.Topology {
	return cluster.Topology{
		Nodes: []cluster.NodeSpec{
			{Name: "sciN0", Procs: 2}, {Name: "sciN1", Procs: 2},
			{Name: "myriN0", Procs: 2}, {Name: "myriN1", Procs: 2},
		},
		Networks: []cluster.NetworkSpec{
			{Name: "sci", Protocol: "sisci", Nodes: []string{"sciN0", "sciN1"}},
			{Name: "myri", Protocol: "bip", Nodes: []string{"myriN0", "myriN1"}},
			{Name: "eth", Protocol: "tcp", Nodes: []string{"sciN0", "sciN1", "myriN0", "myriN1"}},
		},
	}
}

// triangleTopo is the bridged triangle: SCI islands A and B and BIP
// island C with no common network, joined pairwise by three TCP bridges.
// Nine ranks, forwarding through the gateways, MPI_Init autotuning and
// no tune cache, so every session pays the full sweep.
func triangleTopo() cluster.Topology {
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
		Autotune:   true,
	}
}

// payloads is the seeded data every message carries. Send buffers are
// windows into it, so a receiver knows exactly which bytes it must get.
type payloads struct {
	bytes  []byte // random bytes
	floats []byte // little-endian float64 integers below 2^20: sums stay exact
}

const (
	poolBytes  = 4 << 20
	poolFloats = 2 << 20
)

func newPayloads(rng *splitmix64) *payloads {
	pl := &payloads{bytes: make([]byte, poolBytes), floats: make([]byte, poolFloats)}
	for i := 0; i < len(pl.bytes); i += 8 {
		binary.LittleEndian.PutUint64(pl.bytes[i:], rng.next())
	}
	for i := 0; i < len(pl.floats); i += 8 {
		binary.LittleEndian.PutUint64(pl.floats[i:], math.Float64bits(float64(rng.next()>>44)))
	}
	return pl
}

// window returns n bytes of the byte pool at off.
func (pl *payloads) window(off, n int) []byte { return pl.bytes[off : off+n] }

// recorder collects one pass's observations. Rank mains run one at a
// time under the cooperative virtual-time scheduler, so it needs no lock.
type recorder struct {
	s      *vtime.Scheduler
	lo, hi []vtime.Time // per sample: earliest entry, latest exit
	ok     int          // operations that returned with verified output
	landed int64        // verified payload bytes delivered into receive buffers
	bad    int          // operations whose output was wrong
}

func newRecorder(s *vtime.Scheduler, samples int) *recorder {
	r := &recorder{s: s, lo: make([]vtime.Time, samples), hi: make([]vtime.Time, samples)}
	for i := range r.lo {
		r.lo[i] = math.MaxInt64
	}
	return r
}

func (r *recorder) begin(i int) { r.lo[i] = min(r.lo[i], r.s.Now()) }
func (r *recorder) end(i int)   { r.hi[i] = max(r.hi[i], r.s.Now()) }

// check records one operation's verification.
func (r *recorder) check(ok bool, landed int, format string, args ...any) {
	if ok {
		r.ok++
		r.landed += int64(landed)
		return
	}
	if r.bad++; r.bad <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong data: "+format+"\n", args...)
	}
}

// latencies returns each sample's latest exit minus earliest entry, in
// virtual µs, and the run phase's virtual makespan.
func (r *recorder) latencies() (lat []float64, span vtime.Duration) {
	lo, hi := vtime.Time(math.MaxInt64), vtime.Time(0)
	for i := range r.lo {
		lat = append(lat, r.hi[i].Sub(r.lo[i]).Micros())
		lo, hi = min(lo, r.lo[i]), max(hi, r.hi[i])
	}
	return lat, hi.Sub(lo)
}

// ---- p2p-mux ----

const (
	p2pRanks  = 8
	p2pRounds = 512
	p2pMin    = 4
	p2pMax    = 256 << 10
)

// p2pJob: in round k rank r sends n[k][r] bytes to dst[k][r] and receives
// from src[k][r]; dst[k] is a random permutation, src its inverse.
type p2pJob struct {
	pl               *payloads
	dst, src, n, off [][]int
}

// p2pClasses are the device classes of the machine's rank pairs.
var p2pClasses = [...]string{"self", "smp", "san", "wan"}

// p2pMixes are the per-round class mixes (sends per p2pClasses entry)
// that rounds take in turn; each is a common mix of a random permutation
// of the machine. Together they make wan 5/8 of all sends. With the
// uniform mix's 1/2, the median latency sat on the boundary between the
// wan and the faster classes and swung by up to 14% from seed to seed.
var p2pMixes = [][len(p2pClasses)]int{{1, 1, 2, 4}, {0, 0, 2, 6}}

func genP2P(seed uint64, pl *payloads) (job, error) {
	rng := &splitmix64{s: seed ^ 0x7032702d6d7578}
	sess, err := cluster.Build(heteroTopo())
	if err != nil {
		return nil, err
	}
	j := &p2pJob{pl: pl}
	var byClass [len(p2pClasses)][][2]int // (round, rank) of each send
	for k := 0; k < p2pRounds; k++ {
		dst, class, err := mixedPerm(rng, sess, p2pMixes[k%len(p2pMixes)])
		if err != nil {
			return nil, err
		}
		src := make([]int, p2pRanks)
		for r, d := range dst {
			src[d] = r
			byClass[class[r]] = append(byClass[class[r]], [2]int{k, r})
		}
		j.dst, j.src = append(j.dst, dst), append(j.src, src)
		j.n, j.off = append(j.n, make([]int, p2pRanks)), append(j.off, make([]int, p2pRanks))
	}
	// Each class gets its own size ladder, so every seed puts the same
	// sizes on each class, on both sides of its switch point.
	for c, sends := range byClass {
		var below, above int
		for i, size := range rng.logSizes(len(sends), p2pMin, p2pMax) {
			k, r := sends[i][0], sends[i][1]
			j.n[k][r], j.off[k][r] = size, rng.intn(poolBytes-size+1)
			if size < sess.Ranks[r].ChMad.SwitchPointTo(j.dst[k][r]) {
				below++
			} else {
				above++
			}
		}
		if name := p2pClasses[c]; (name == "san" || name == "wan") && (below == 0 || above == 0) {
			return nil, fmt.Errorf("p2p-mux: %s class has %d sends below its switch point and %d above", name, below, above)
		}
	}
	return j, nil
}

// mixedPerm draws random permutations of the ranks until one has the
// given class mix, and returns it with each send's class.
func mixedPerm(rng *splitmix64, sess *cluster.Session, mix [len(p2pClasses)]int) (dst, class []int, err error) {
	for {
		dst, class = rng.perm(p2pRanks), make([]int, p2pRanks)
		var got [len(p2pClasses)]int
		for r, d := range dst {
			name := sess.LinkClassOf(r, d)
			c := slices.Index(p2pClasses[:], name)
			if c < 0 {
				return nil, nil, fmt.Errorf("p2p-mux: unexpected link class %q for %d->%d", name, r, d)
			}
			class[r] = c
			got[c]++
		}
		if got == mix {
			return dst, class, nil
		}
	}
}

func (j *p2pJob) samples() int { return p2pRounds * p2pRanks }
func (j *p2pJob) ops() int     { return p2pRounds * p2pRanks }

func (j *p2pJob) main(rank int, comm *mpi.Comm, rec *recorder) error {
	buf := make([]byte, p2pMax)
	for k := range j.dst {
		src := j.src[k][rank]
		send := j.pl.window(j.off[k][rank], j.n[k][rank])
		want := j.pl.window(j.off[k][src], j.n[k][src])
		recv := buf[:len(want)]
		clear(recv)
		sample := k*p2pRanks + rank
		rec.begin(sample)
		st, err := comm.Sendrecv(send, len(send), mpi.Byte, j.dst[k][rank], k, recv, len(recv), mpi.Byte, src, k)
		rec.end(sample)
		if err != nil {
			return fmt.Errorf("round %d: %w", k, err)
		}
		rec.check(st.Bytes == len(want) && bytes.Equal(recv, want), len(want),
			"p2p round %d rank %d from %d", k, rank, src)
	}
	return nil
}

// ---- coll-gateway ----

const (
	collRanks   = 9
	collPerKind = 100 // stratified sizes per collective kind
	collMin     = 1 << 10
	collMax     = 1 << 20
)

type collKind int

const (
	kBcast collKind = iota
	kAllreduce
	kAllgather
	kAlltoall
	nCollKinds
)

func (k collKind) String() string {
	return [...]string{"Bcast", "Allreduce", "Allgather", "Alltoall"}[k]
}

// collOp is one collective: size is each rank's buffer in bytes (the
// Alltoall send buffer, the Allgather result, the Bcast message, the
// Allreduce vector); off[r] locates rank r's input in the payload pool.
type collOp struct {
	kind collKind
	size int
	root int
	off  []int
	sum  []byte // Allreduce: the exact expected result
}

// block is the per-rank block of an Allgather or Alltoall.
func (op *collOp) block() int { return max(1, op.size/collRanks) }

type collJob struct {
	pl   *payloads
	list []collOp
}

func genColl(seed uint64, pl *payloads) (job, error) {
	rng := &splitmix64{s: seed ^ 0x636f6c6c2d6777}
	j := &collJob{pl: pl}
	var sizes [nCollKinds][]int
	for k := range sizes {
		sizes[k] = rng.logSizes(collPerKind, collMin, collMax)
	}
	// The kinds take turns, so every seed runs the same mix of kind
	// transitions and only sizes, roots and payloads vary.
	for i := 0; i < collPerKind; i++ {
		for k := kBcast; k < nCollKinds; k++ {
			size := sizes[k][i]
			op := collOp{kind: k, size: size, root: rng.intn(collRanks), off: make([]int, collRanks)}
			for r := range op.off {
				switch k {
				case kAllreduce:
					op.off[r] = 8 * rng.intn((poolFloats-op.size)/8+1)
				case kAlltoall:
					op.off[r] = rng.intn(poolBytes - op.block()*collRanks + 1)
				default:
					op.off[r] = rng.intn(poolBytes - op.size + 1)
				}
			}
			if k == kAllreduce {
				op.size -= op.size % 8
				op.sum = make([]byte, op.size)
				for i := 0; i < op.size; i += 8 {
					var s float64
					for _, off := range op.off {
						s += math.Float64frombits(binary.LittleEndian.Uint64(pl.floats[off+i:]))
					}
					binary.LittleEndian.PutUint64(op.sum[i:], math.Float64bits(s))
				}
			}
			j.list = append(j.list, op)
		}
	}
	return j, nil
}

func (j *collJob) samples() int { return len(j.list) }
func (j *collJob) ops() int     { return len(j.list) * collRanks }

func (j *collJob) main(rank int, comm *mpi.Comm, rec *recorder) error {
	buf := make([]byte, collMax+collRanks)
	for i := range j.list {
		op := &j.list[i]
		rec.begin(i)
		ok, landed, err := j.run(op, rank, comm, buf)
		rec.end(i)
		if err != nil {
			return fmt.Errorf("op %d %v %d B: %w", i, op.kind, op.size, err)
		}
		rec.check(ok, landed, "op %d %v %d B on rank %d", i, op.kind, op.size, rank)
	}
	return nil
}

// run executes one collective on one rank and verifies its output: it
// reports whether the receive buffer holds exactly the expected bytes
// and how many payload bytes other ranks delivered into it.
func (j *collJob) run(op *collOp, rank int, comm *mpi.Comm, buf []byte) (ok bool, landed int, err error) {
	switch op.kind {
	case kBcast:
		want := j.pl.window(op.off[op.root], op.size)
		b := buf[:op.size]
		if rank == op.root {
			copy(b, want)
		} else {
			clear(b)
		}
		if err := comm.Bcast(b, op.size, mpi.Byte, op.root); err != nil {
			return false, 0, err
		}
		if rank == op.root {
			return bytes.Equal(b, want), 0, nil
		}
		return bytes.Equal(b, want), op.size, nil
	case kAllreduce:
		out := buf[:op.size]
		clear(out)
		in := j.pl.floats[op.off[rank] : op.off[rank]+op.size]
		if err := comm.Allreduce(in, out, op.size/8, mpi.Float64, mpi.OpSum); err != nil {
			return false, 0, err
		}
		return bytes.Equal(out, op.sum), op.size, nil
	case kAllgather:
		blk := op.block()
		out := buf[:blk*collRanks]
		clear(out)
		if err := comm.Allgather(j.pl.window(op.off[rank], blk), out, blk, mpi.Byte); err != nil {
			return false, 0, err
		}
		ok = true
		for s := 0; s < collRanks; s++ {
			ok = ok && bytes.Equal(out[s*blk:(s+1)*blk], j.pl.window(op.off[s], blk))
		}
		return ok, blk * (collRanks - 1), nil
	case kAlltoall:
		blk := op.block()
		out := buf[:blk*collRanks]
		clear(out)
		if err := comm.Alltoall(j.pl.window(op.off[rank], blk*collRanks), out, blk, mpi.Byte); err != nil {
			return false, 0, err
		}
		ok = true
		for s := 0; s < collRanks; s++ {
			ok = ok && bytes.Equal(out[s*blk:(s+1)*blk], j.pl.window(op.off[s]+rank*blk, blk))
		}
		return ok, blk * (collRanks - 1), nil
	}
	return false, 0, fmt.Errorf("unknown collective %d", op.kind)
}

// ---- halo-scale ----

const (
	haloClusters = 16
	haloPer      = 16
	haloRanks    = haloClusters * haloPer
	haloSteps    = 100
	haloMovers   = 16 // ranks in each step's long-range exchange ring
	haloMin      = 8
	haloMax      = 1 << 10  // ring halo
	farMax       = 16 << 10 // long-range exchange
)

// haloJob: in step k every rank swaps h[k] bytes with both ring
// neighbours, n[k][r] bytes with a random long-range partner, and joins
// an 8-byte Allreduce of v[k][r].
type haloJob struct {
	pl               *payloads
	h                []int
	hoff             [][]int // this rank's rightward halo; the leftward one follows it
	dst, src, n, off [][]int
	v                [][]float64
	sum              []float64
}

func genHalo(seed uint64, pl *payloads) (job, error) {
	rng := &splitmix64{s: seed ^ 0x68616c6f2d7363}
	j := &haloJob{pl: pl, h: rng.logSizes(haloSteps, haloMin, haloMax)}
	lr := rng.logSizes(haloSteps*haloMovers, haloMin, farMax)
	for k := 0; k < haloSteps; k++ {
		hoff, v := make([]int, haloRanks), make([]float64, haloRanks)
		dst, src := make([]int, haloRanks), make([]int, haloRanks)
		n, off := make([]int, haloRanks), make([]int, haloRanks)
		var sum float64
		for r := 0; r < haloRanks; r++ {
			hoff[r] = rng.intn(poolBytes - 2*j.h[k] + 1)
			dst[r], src[r] = -1, -1
			v[r] = float64(rng.next() >> 44)
			sum += v[r]
		}
		movers := rng.perm(haloRanks)[:haloMovers]
		for i, r := range movers {
			d := movers[(i+1)%haloMovers]
			dst[r], src[d] = d, r
			n[r] = lr[k*haloMovers+i]
			off[r] = rng.intn(poolBytes - n[r] + 1)
		}
		j.hoff, j.v, j.sum = append(j.hoff, hoff), append(j.v, v), append(j.sum, sum)
		j.dst, j.src, j.n, j.off = append(j.dst, dst), append(j.src, src), append(j.n, n), append(j.off, off)
	}
	return j, nil
}

func (j *haloJob) samples() int { return haloSteps }
func (j *haloJob) ops() int     { return haloSteps * (haloRanks*3 + haloMovers) }

func (j *haloJob) main(rank int, comm *mpi.Comm, rec *recorder) error {
	buf := make([]byte, farMax)
	left, right := (rank+haloRanks-1)%haloRanks, (rank+1)%haloRanks
	in, out := make([]byte, 8), make([]byte, 8)
	exchange := func(k, tag int, send []byte, dst, src int, want []byte) error {
		recv := buf[:len(want)]
		clear(recv)
		st, err := comm.Sendrecv(send, len(send), mpi.Byte, dst, tag, recv, len(recv), mpi.Byte, src, tag)
		if err != nil {
			return fmt.Errorf("step %d tag %d: %w", k, tag, err)
		}
		rec.check(st.Bytes == len(want) && bytes.Equal(recv, want), len(want),
			"halo step %d tag %d rank %d from %d", k, tag, rank, src)
		return nil
	}
	for k := 0; k < haloSteps; k++ {
		h := j.h[k]
		rec.begin(k)
		if err := exchange(k, 3*k, j.pl.window(j.hoff[k][rank], h), right, left,
			j.pl.window(j.hoff[k][left], h)); err != nil {
			return err
		}
		if err := exchange(k, 3*k+1, j.pl.window(j.hoff[k][rank]+h, h), left, right,
			j.pl.window(j.hoff[k][right]+h, h)); err != nil {
			return err
		}
		if src := j.src[k][rank]; src >= 0 {
			if err := exchange(k, 3*k+2, j.pl.window(j.off[k][rank], j.n[k][rank]), j.dst[k][rank], src,
				j.pl.window(j.off[k][src], j.n[k][src])); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(in, math.Float64bits(j.v[k][rank]))
		clear(out)
		if err := comm.Allreduce(in, out, 1, mpi.Float64, mpi.OpSum); err != nil {
			return fmt.Errorf("step %d allreduce: %w", k, err)
		}
		rec.end(k)
		got := math.Float64frombits(binary.LittleEndian.Uint64(out))
		rec.check(got == j.sum[k], 8, "halo step %d allreduce rank %d: %v, want %v", k, rank, got, j.sum[k])
	}
	return nil
}
