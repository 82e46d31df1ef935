package mpi

import "fmt"

// Static collective tags for the operations that still run as direct call
// trees (variable-count gather/scatter, scan). Everything else compiles
// into a schedule (schedule.go) whose messages carry a unique per-operation
// tag at tagNBCBase and above; collectives run on the communicator's
// paired context (ctx+1), so neither can collide with user point-to-point
// traffic.
const (
	tagGather = iota
	tagScatter
	tagScan
)

func (c *Comm) collCtx() int { return c.ctx + 1 }

// Every blocking collective below is its nonblocking twin compiled and
// immediately waited on. The schedule compilers hold the only algorithm
// bodies — flat and ring ones in this file, two-level ones in hcoll.go,
// multi-leader ones in hmulti.go — built from the round primitives in
// schedule.go and reached through the dispatch table in nbc.go, so a new
// algorithm is a new compiler plus a table entry and nothing else.

// Barrier blocks until all members have entered it (MPI_Barrier).
func (c *Comm) Barrier() error {
	req, err := c.Ibarrier()
	if err != nil {
		return err
	}
	return req.Wait()
}

// Bcast broadcasts count elements of dt from root to every member
// (MPI_Bcast). The tuning table picks the two-level tree (pipelined in
// segments for large payloads) on multi-cluster topologies, the flat
// binomial tree otherwise.
func (c *Comm) Bcast(buf []byte, count int, dt Datatype, root int) error {
	req, err := c.Ibcast(buf, count, dt, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Reduce combines count elements from every member's sendBuf with op,
// leaving the result in root's recvBuf (MPI_Reduce).
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op, root int) error {
	req, err := c.Ireduce(sendBuf, recvBuf, count, dt, op, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Allreduce is Reduce to rank 0 chained with Bcast (MPI_Allreduce),
// compiled as one schedule.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	req, err := c.Iallreduce(sendBuf, recvBuf, count, dt, op)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Gather collects count elements from every member into root's recvBuf,
// ordered by rank (MPI_Gather). recvBuf needs size*count elements at root.
func (c *Comm) Gather(sendBuf []byte, recvBuf []byte, count int, dt Datatype, root int) error {
	req, err := c.Igather(sendBuf, recvBuf, count, dt, root)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Allgather gathers count elements from each member into every member's
// recvBuf in rank order (MPI_Allgather).
func (c *Comm) Allgather(sendBuf []byte, recvBuf []byte, count int, dt Datatype) error {
	req, err := c.Iallgather(sendBuf, recvBuf, count, dt)
	if err != nil {
		return err
	}
	return req.Wait()
}

// Alltoall sends a distinct count-element block to every member and
// receives one from each (MPI_Alltoall). Flat pairwise rotation, or the
// two-level leader-bundled exchange on multi-cluster topologies.
func (c *Comm) Alltoall(sendBuf []byte, recvBuf []byte, count int, dt Datatype) error {
	req, err := c.Ialltoall(sendBuf, recvBuf, count, dt)
	if err != nil {
		return err
	}
	return req.Wait()
}

// ---- Flat (topology-blind) schedule compilers ----

// compileBarrierFlat is the dissemination algorithm: ceil(log2 n) rounds
// of 0-byte exchanges.
func (c *Comm) compileBarrierFlat(collArgs) *schedule {
	n := c.Size()
	b := newSched("barrier")
	for k := 1; k < n; k <<= 1 {
		b.recv((c.myRank-k+n)%n, nil)
		b.send((c.myRank+k)%n, nil)
		b.endRound()
	}
	return b.build(nil)
}

// bcastData is a broadcast's staging vector: the root's packed payload,
// a fresh buffer to receive into everywhere else.
func (c *Comm) bcastData(a collArgs) []byte {
	if c.myRank == a.root {
		return PackBuf(a.send, a.count, a.dt)
	}
	return make([]byte, a.count*a.dt.Size())
}

// compileBcastFlat: the topology-blind binomial tree, latency O(log n).
func (c *Comm) compileBcastFlat(a collArgs) *schedule {
	data := c.bcastData(a)
	b := newSched("bcast")
	parent, children := binomial(c.Size(), a.root, c.myRank)
	b.fanOut(parent, children, data)
	return b.build(c.finUnpack(c.myRank != a.root, a.recv, a.count, a.dt, data))
}

// reduceFlatRounds appends the binomial reduction tree rooted at root —
// one round per child, smallest subtree first, then the send to the
// parent — and returns the accumulator, which holds the full reduction
// at the root once the rounds have run.
func (c *Comm) reduceFlatRounds(b *schedBuilder, a collArgs, root int) []byte {
	acc := b.accumulator(a.send, a.count, a.dt)
	parent, children := binomial(c.Size(), root, c.myRank)
	for i := len(children) - 1; i >= 0; i-- {
		b.fanIn(-1, children[i:i+1], acc, a.count, a.dt, a.op)
	}
	b.fanIn(parent, nil, acc, a.count, a.dt, a.op)
	return acc
}

// compileReduceFlat: the topology-blind binomial reduction tree.
func (c *Comm) compileReduceFlat(a collArgs) *schedule {
	b := newSched("reduce")
	acc := c.reduceFlatRounds(b, a, a.root)
	return b.build(c.finUnpack(c.myRank == a.root, a.recv, a.count, a.dt, acc))
}

// compileAllreduceFlat chains the flat reduce-to-0 rounds with the flat
// broadcast-from-0 rounds over one shared accumulator.
func (c *Comm) compileAllreduceFlat(a collArgs) *schedule {
	b := newSched("allreduce")
	acc := c.reduceFlatRounds(b, a, 0)
	parent, children := binomial(c.Size(), 0, c.myRank)
	b.fanOut(parent, children, acc)
	return b.build(c.finUnpack(true, a.recv, a.count, a.dt, acc))
}

// compileGatherFlat: every member ships its block straight to the root.
func (c *Comm) compileGatherFlat(a collArgs) *schedule {
	count, dt, root := a.count, a.dt, a.root
	sz := count * dt.Size()
	ex := dt.Extent()
	mine := PackBuf(a.send, count, dt)
	b := newSched("gather")
	if c.myRank != root {
		b.send(root, mine)
		return b.build(nil)
	}
	slots := make([][]byte, c.Size())
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		slots[r] = make([]byte, sz)
		b.recv(r, slots[r])
	}
	b.endRound()
	return b.build(func() {
		c.p.M.Compute(c.p.memTime(sz))
		UnpackBuf(a.recv[root*count*ex:], count, dt, mine)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			UnpackBuf(a.recv[r*count*ex:], count, dt, slots[r])
		}
	})
}

// compileAllgatherFlat is the ring algorithm: n-1 rounds, each forwarding
// the block received in the previous round.
func (c *Comm) compileAllgatherFlat(a collArgs) *schedule {
	n := c.Size()
	count, dt := a.count, a.dt
	sz := count * dt.Size()
	ex := dt.Extent()
	mine := PackBuf(a.send, count, dt)
	own := make([]byte, sz)
	right := (c.myRank + 1) % n
	left := (c.myRank - 1 + n) % n

	b := newSched("allgather")
	b.copyStep(own, mine)
	b.endRound()
	incoming := make([][]byte, n-1)
	cur := own
	for s := 0; s < n-1; s++ {
		incoming[s] = make([]byte, sz)
		b.recv(left, incoming[s])
		b.send(right, cur)
		b.endRound()
		cur = incoming[s]
	}
	return b.build(func() {
		UnpackBuf(a.recv[c.myRank*count*ex:], count, dt, own)
		for s := 0; s < n-1; s++ {
			owner := (c.myRank - s - 1 + 2*n) % n
			UnpackBuf(a.recv[owner*count*ex:], count, dt, incoming[s])
		}
	})
}

// compileAlltoallFlat is the pairwise rotation: n rounds, exchanging with
// partners at increasing rank distance.
func (c *Comm) compileAlltoallFlat(a collArgs) *schedule {
	n := c.Size()
	count, dt := a.count, a.dt
	sz := count * dt.Size()
	ex := dt.Extent()
	b := newSched("alltoall")
	selfStage := make([]byte, sz)
	in := make([][]byte, n)
	for step := 0; step < n; step++ {
		to := (c.myRank + step) % n
		from := (c.myRank - step + n) % n
		out := PackBuf(a.send[to*count*ex:], count, dt)
		if to == c.myRank {
			b.copyStep(selfStage, out)
			b.endRound()
			continue
		}
		in[from] = make([]byte, sz)
		b.recv(from, in[from])
		b.send(to, out)
		b.endRound()
	}
	return b.build(func() {
		UnpackBuf(a.recv[c.myRank*count*ex:], count, dt, selfStage)
		for from := 0; from < n; from++ {
			if from == c.myRank {
				continue
			}
			UnpackBuf(a.recv[from*count*ex:], count, dt, in[from])
		}
	})
}

// ---- Bandwidth-optimal ring compilers ----
//
// The binomial trees above move the full vector O(log n) times per rank;
// the ring algorithms move 2·(n−1)/n of it, at the price of O(n) latency
// rounds — the classic large-vector tradeoff (MPICH's ring allreduce,
// Rabenseifner's reduce-scatter + allgather). Both phases are written as
// round helpers over an explicit member list so the two-level compilers in
// hcoll.go can run the same rings inside a cluster.

// splitBounds partitions count elements into m contiguous near-equal
// blocks: block i spans elements [bounds[i], bounds[i+1]).
func splitBounds(count, m int) []int {
	bounds := make([]int, m+1)
	for i := 0; i <= m; i++ {
		bounds[i] = i * count / m
	}
	return bounds
}

// ringRSRounds appends the ring reduce-scatter over members: m−1 rounds,
// each forwarding one partially reduced block to the right neighbor while
// folding the block arriving from the left into acc (the packed full
// vector, pre-loaded with this rank's contribution). Afterwards acc's
// block myPos holds the complete reduction over all members. The block
// indexing is shifted so each member finishes owning its *own* position's
// block, which is what ReduceScatter semantics need. Requires a
// commutative op (all predefined ops are).
func (c *Comm) ringRSRounds(b *schedBuilder, members []int, myPos int, acc []byte, bounds []int, dt Datatype, op Op) {
	m := len(members)
	if m < 2 {
		return
	}
	es := dt.Size()
	right := members[(myPos+1)%m]
	left := members[(myPos-1+m)%m]
	blk := func(i int) []byte { return acc[bounds[i]*es : bounds[i+1]*es] }
	for s := 0; s < m-1; s++ {
		sendIdx := (myPos - s - 1 + 2*m) % m
		recvIdx := (myPos - s - 2 + 2*m) % m
		part := make([]byte, len(blk(recvIdx)))
		b.recv(left, part)
		b.send(right, blk(sendIdx))
		b.reduce(blk(recvIdx), part, bounds[recvIdx+1]-bounds[recvIdx], dt, op)
		b.endRound()
	}
}

// ringAGRounds appends the ring allgather over members: m−1 rounds
// circulating the completed blocks, starting from each member owning block
// myPos (the ring reduce-scatter postcondition). Receives land directly in
// data's block slots.
func (c *Comm) ringAGRounds(b *schedBuilder, members []int, myPos int, data []byte, bounds []int, es int) {
	m := len(members)
	if m < 2 {
		return
	}
	right := members[(myPos+1)%m]
	left := members[(myPos-1+m)%m]
	blk := func(i int) []byte { return data[bounds[i]*es : bounds[i+1]*es] }
	for s := 0; s < m-1; s++ {
		sendIdx := (myPos - s + m) % m
		recvIdx := (myPos - s - 1 + 2*m) % m
		b.recv(left, blk(recvIdx))
		b.send(right, blk(sendIdx))
		b.endRound()
	}
}

// worldMembers is the communicator's own rank list, the flat rings'
// member list.
func (c *Comm) worldMembers() []int {
	members := make([]int, c.Size())
	for i := range members {
		members[i] = i
	}
	return members
}

// compileAllreduceRing is the flat bandwidth-optimal ring allreduce: ring
// reduce-scatter then ring allgather, 2·(n−1) latency rounds but only
// 2·(n−1)/n of the vector on each link.
func (c *Comm) compileAllreduceRing(a collArgs) *schedule {
	members := c.worldMembers()
	b := newSched("allreduce.ring")
	acc := b.accumulator(a.send, a.count, a.dt)
	bounds := splitBounds(a.count, len(members))
	c.ringRSRounds(b, members, c.myRank, acc, bounds, a.dt, a.op)
	c.ringAGRounds(b, members, c.myRank, acc, bounds, a.dt.Size())
	return b.build(c.finUnpack(true, a.recv, a.count, a.dt, acc))
}

// compileReduceScatterRing is the flat ring reduce-scatter: after n−1
// rounds each rank owns its fully reduced block, with (n−1)/n of the
// vector moved per link — no root bottleneck, no full-vector broadcast.
func (c *Comm) compileReduceScatterRing(a collArgs) *schedule {
	n := c.Size()
	total := a.count * n
	es := a.dt.Size()
	b := newSched("redscat.ring")
	acc := b.accumulator(a.send, total, a.dt)
	bounds := splitBounds(total, n) // equal blocks: bounds[i] = i*count
	c.ringRSRounds(b, c.worldMembers(), c.myRank, acc, bounds, a.dt, a.op)
	mine := acc[bounds[c.myRank]*es : bounds[c.myRank+1]*es]
	return b.build(c.finUnpack(true, a.recv, a.count, a.dt, mine))
}

// ---- Remaining direct (non-scheduled) collectives ----

// Gatherv is the variable-count gather (MPI_Gatherv). displs are element
// offsets into recvBuf per rank; nil means dense packing in rank order.
func (c *Comm) Gatherv(sendBuf []byte, sendCount int, recvBuf []byte, counts, displs []int, dt Datatype, root int) error {
	if err := c.checkLive("Gatherv"); err != nil {
		return err
	}
	if err := c.checkPeer("Gatherv", root); err != nil {
		return err
	}
	if c.myRank != root {
		data := PackBuf(sendBuf, sendCount, dt)
		return c.sendRaw(data, root, tagGather, c.collCtx())
	}
	if len(counts) != c.Size() {
		return fmt.Errorf("mpi: Gatherv: %d counts for %d ranks", len(counts), c.Size())
	}
	if displs == nil {
		displs = make([]int, c.Size())
		off := 0
		for i, n := range counts {
			displs[i] = off
			off += n
		}
	}
	ex := dt.Extent()
	for r := 0; r < c.Size(); r++ {
		dst := recvBuf[displs[r]*ex:]
		if r == root {
			data := PackBuf(sendBuf, sendCount, dt)
			c.p.M.Compute(c.p.memTime(len(data)))
			UnpackBuf(dst, counts[r], dt, data)
			continue
		}
		tmp := make([]byte, counts[r]*dt.Size())
		if _, err := c.recvRaw(tmp, r, tagGather, c.collCtx()); err != nil {
			return err
		}
		UnpackBuf(dst, counts[r], dt, tmp)
	}
	return nil
}

// Scatter distributes count elements per rank from root's sendBuf
// (MPI_Scatter).
func (c *Comm) Scatter(sendBuf []byte, recvBuf []byte, count int, dt Datatype, root int) error {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = count
	}
	return c.Scatterv(sendBuf, counts, nil, recvBuf, count, dt, root)
}

// Scatterv is the variable-count scatter (MPI_Scatterv).
func (c *Comm) Scatterv(sendBuf []byte, counts, displs []int, recvBuf []byte, recvCount int, dt Datatype, root int) error {
	if err := c.checkLive("Scatterv"); err != nil {
		return err
	}
	if err := c.checkPeer("Scatterv", root); err != nil {
		return err
	}
	if c.myRank != root {
		tmp := make([]byte, recvCount*dt.Size())
		if _, err := c.recvRaw(tmp, root, tagScatter, c.collCtx()); err != nil {
			return err
		}
		c.p.M.Compute(c.p.memTime(len(tmp)))
		UnpackBuf(recvBuf, recvCount, dt, tmp)
		return nil
	}
	if len(counts) != c.Size() {
		return fmt.Errorf("mpi: Scatterv: %d counts for %d ranks", len(counts), c.Size())
	}
	if displs == nil {
		displs = make([]int, c.Size())
		off := 0
		for i, n := range counts {
			displs[i] = off
			off += n
		}
	}
	ex := dt.Extent()
	for r := 0; r < c.Size(); r++ {
		chunk := PackBuf(sendBuf[displs[r]*ex:], counts[r], dt)
		if r == root {
			c.p.M.Compute(c.p.memTime(len(chunk)))
			UnpackBuf(recvBuf, recvCount, dt, chunk)
			continue
		}
		if err := c.sendRaw(chunk, r, tagScatter, c.collCtx()); err != nil {
			return err
		}
	}
	return nil
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(x_0, ..., x_r) (MPI_Scan). Linear chain.
func (c *Comm) Scan(sendBuf, recvBuf []byte, count int, dt Datatype, op Op) error {
	if err := c.checkLive("Scan"); err != nil {
		return err
	}
	acc := make([]byte, count*dt.Size())
	copy(acc, PackBuf(sendBuf, count, dt))
	c.p.M.Compute(c.p.memTime(len(acc)))
	if c.myRank > 0 {
		prefix := make([]byte, len(acc))
		if _, err := c.recvRaw(prefix, c.myRank-1, tagScan, c.collCtx()); err != nil {
			return err
		}
		if err := op.Apply(acc, prefix, count, dt); err != nil {
			return err
		}
	}
	if c.myRank < c.Size()-1 {
		if err := c.sendRaw(acc, c.myRank+1, tagScan, c.collCtx()); err != nil {
			return err
		}
	}
	UnpackBuf(recvBuf, count, dt, acc)
	return nil
}
