package mpi

// Two-level (hierarchy-aware) schedule compilers. Each operation runs an
// intra-cluster binomial phase on the fast fabric plus a single
// leader-level exchange over the slow backbone, so the number of
// inter-cluster messages is O(#clusters) instead of O(log n) (or O(n) for
// adversarial rank placements). See topology.go for the selection logic
// and schedule.go for the execution model these compile into.

// compileBarrierHier: fan-in then fan-out over the two-level tree rooted
// at comm rank 0. The slow backbone carries exactly 2·(#clusters−1) empty
// messages, versus the dissemination algorithm's n·ceil(log2 n).
func (c *Comm) compileBarrierHier(collArgs) *schedule {
	parent, children := c.topo().twoLevelTree(c.myRank, 0)
	b := newSched("barrier.h")
	b.fanIn(parent, children, nil, 0, nil, nil)
	b.fanOut(parent, children, nil)
	return b.build(nil)
}

// bcastHierRounds appends the two-level tree broadcast of data rooted at
// root, optionally pipelining in segBytes segments (segBytes <= 0
// disables segmentation). Segments ride the eager path, so a rank can
// forward segment k to its children while its parent is already injecting
// segment k+1: the slow backbone transfer overlaps the fast intra-cluster
// fan-out, the paper's store-and-forward §6 scenario.
func (c *Comm) bcastHierRounds(b *schedBuilder, data []byte, root, segBytes int) {
	parent, children := c.topo().twoLevelTree(c.myRank, root)
	total := len(data)
	seg := segBytes
	if seg <= 0 || seg > total {
		seg = total
	}
	nseg := 1
	if seg > 0 {
		nseg = (total + seg - 1) / seg
	}
	for s := 0; s < nseg; s++ {
		lo := s * seg
		b.fanOut(parent, children, data[lo:min(lo+seg, total)])
	}
}

// compileBcastHier broadcasts through the two-level tree.
func (c *Comm) compileBcastHier(a collArgs, segBytes int) *schedule {
	data := c.bcastData(a)
	b := newSched("bcast.h")
	c.bcastHierRounds(b, data, a.root, segBytes)
	return b.build(c.finUnpack(c.myRank != a.root, a.recv, a.count, a.dt, data))
}

// reduceHierRounds appends the reduction along the reversed two-level
// tree: every rank folds its children's partials into its accumulator
// (intra-cluster children first, so the single backbone message carries a
// fully reduced cluster contribution) and forwards one message to its
// parent. Returns the accumulator, complete at the root.
func (c *Comm) reduceHierRounds(b *schedBuilder, a collArgs, root int) []byte {
	parent, children := c.topo().twoLevelTree(c.myRank, root)
	acc := b.accumulator(a.send, a.count, a.dt)
	b.fanIn(parent, children, acc, a.count, a.dt, a.op)
	return acc
}

// compileReduceHier: two-level reduction to root.
func (c *Comm) compileReduceHier(a collArgs) *schedule {
	b := newSched("reduce.h")
	acc := c.reduceHierRounds(b, a, a.root)
	return b.build(c.finUnpack(c.myRank == a.root, a.recv, a.count, a.dt, acc))
}

// compileAllreduceHier chains reduce-to-0 with broadcast-from-0, both
// two-level: the backbone carries one reduced vector per cluster inbound
// and one result vector per cluster outbound — once per slow link per
// direction.
func (c *Comm) compileAllreduceHier(a collArgs) *schedule {
	b := newSched("allreduce.h")
	acc := c.reduceHierRounds(b, a, 0)
	c.bcastHierRounds(b, acc, 0, c.bcastSegment(len(acc)))
	return b.build(c.finUnpack(true, a.recv, a.count, a.dt, acc))
}

// compileGatherHier gathers via cluster-leader staging: members send
// their block to their cluster's operation leader (the root stands in for
// its own cluster), each leader concatenates its cluster's blocks in rank
// order and ships one bundle to the root over the backbone.
func (c *Comm) compileGatherHier(a collArgs) *schedule {
	ct := c.topo()
	count, dt := a.count, a.dt
	sz := count * dt.Size()
	ex := dt.Extent()

	leader := ct.leaders[ct.myCluster]
	if ct.myCluster == ct.clusterOf[a.root] {
		leader = a.root
	}
	b := newSched("gather.h")
	// Stage my cluster's blocks at the leader, in ascending comm-rank
	// order.
	bundle := b.gatherBundle(c.myRank, leader, ct.clusters[ct.myCluster], PackBuf(a.send, count, dt))
	if c.myRank != leader {
		return b.build(nil)
	}
	if c.myRank != a.root {
		b.send(a.root, bundle)
		return b.build(nil)
	}

	// Root: one bundle per remote cluster leader, scattered to each
	// member's slot in recvBuf at completion.
	remote := make([][]byte, ct.nClusters)
	for di := 0; di < ct.nClusters; di++ {
		if di == ct.myCluster {
			continue
		}
		remote[di] = make([]byte, len(ct.clusters[di])*sz)
		b.recv(ct.leaders[di], remote[di])
	}
	b.endRound()
	return b.build(func() {
		place := func(di int, bun []byte) {
			for i, m := range ct.clusters[di] {
				UnpackBuf(a.recv[m*count*ex:], count, dt, bun[i*sz:(i+1)*sz])
			}
		}
		place(ct.myCluster, bundle)
		for di := 0; di < ct.nClusters; di++ {
			if di == ct.myCluster {
				continue
			}
			c.p.M.Compute(c.p.memTime(len(remote[di])))
			place(di, remote[di])
		}
	})
}

// compileAllgatherHier: intra-cluster gather to the leader, a direct
// bundle exchange among leaders (receives pre-posted, so concurrent
// rendez-vous sends cannot deadlock), then an intra-cluster broadcast of
// the fully assembled vector.
func (c *Comm) compileAllgatherHier(a collArgs) *schedule {
	ct := c.topo()
	n := c.Size()
	sz := a.count * a.dt.Size()

	members, myPos, leaderPos := c.clusterPos()
	leader := ct.leaders[ct.myCluster]
	full := make([]byte, n*sz) // packed world vector, comm-rank order
	b := newSched("allgather.h")

	bundle := b.gatherBundle(c.myRank, leader, members, PackBuf(a.send, a.count, a.dt))
	if c.myRank == leader {
		// Leader exchange: every leader ships its cluster bundle to every
		// other leader; L·(L−1) backbone messages total, one per directed
		// leader pair.
		bundles := make([][]byte, ct.nClusters)
		out := make([][]byte, ct.nClusters)
		for di := range bundles {
			bundles[di], out[di] = bundle, bundle
			if di != ct.myCluster {
				bundles[di] = make([]byte, len(ct.clusters[di])*sz)
			}
		}
		b.exchange(ct.leaders, ct.myCluster, bundles, out)
		b.endRound()
		// Assemble the world vector from the cluster bundles.
		for di := 0; di < ct.nClusters; di++ {
			for i, m := range ct.clusters[di] {
				b.copyStep(full[m*sz:(m+1)*sz], bundles[di][i*sz:(i+1)*sz])
			}
		}
		b.endRound()
	}

	// Intra-cluster broadcast of the assembled vector.
	parent, children := binomialOver(members, leaderPos, myPos)
	b.fanOut(parent, children, full)
	return b.build(c.finUnpack(true, a.recv, n*a.count, a.dt, full))
}

// ---- Two-level ring compilers ----
//
// The bandwidth-optimal rings from collectives.go run *inside* each
// cluster, where every hop rides the fast fabric; the slow backbone still
// carries exactly one leader-level exchange. A flat ring on a
// cluster-of-clusters would be the worst of both worlds: with interleaved
// rank placement every ring hop crosses the backbone, so the ring's 2(n−1)
// rounds each pay the slow link.

// clusterPos returns the member list of this rank's cluster plus the
// positions of this rank and the cluster leader within it.
func (c *Comm) clusterPos() (members []int, myPos, leaderPos int) {
	ct := c.topo()
	members = ct.clusters[ct.myCluster]
	leader := ct.leaders[ct.myCluster]
	for i, m := range members {
		if m == c.myRank {
			myPos = i
		}
		if m == leader {
			leaderPos = i
		}
	}
	return members, myPos, leaderPos
}

// compileAllreduceRingHier is the two-level ring allreduce: intra-cluster
// ring reduce-scatter, chunk gather to the cluster leader, a single
// binomial leader exchange over the backbone (reduce to cluster 0's
// leader, result broadcast back to the leaders), then a chunk scatter and
// intra-cluster ring allgather. Each fast link carries ~2·(m−1)/m of the
// vector instead of the binomial phases' log(m) full copies; the backbone
// still sees one vector per cluster per direction.
func (c *Comm) compileAllreduceRingHier(a collArgs) *schedule {
	ct := c.topo()
	members, myPos, _ := c.clusterPos()
	leader := ct.leaders[ct.myCluster]
	es := a.dt.Size()
	bounds := splitBounds(a.count, len(members))

	b := newSched("allreduce.ringh")
	acc := b.accumulator(a.send, a.count, a.dt)
	chunk := func(i int) []byte { return acc[bounds[i]*es : bounds[i+1]*es] }

	// Phase A: intra-cluster ring reduce-scatter — member at position i
	// ends up holding the cluster-reduced chunk i.
	c.ringRSRounds(b, members, myPos, acc, bounds, a.dt, a.op)

	// Phase B: chunks converge on the leader, which reassembles the
	// cluster-reduced full vector in acc.
	if c.myRank != leader {
		b.send(leader, chunk(myPos))
		b.endRound()
	} else {
		for i, mr := range members {
			if mr == c.myRank {
				continue
			}
			b.recv(mr, chunk(i))
		}
		b.endRound()
		// Phase C: the single backbone exchange — binomial reduce over the
		// cluster leaders to cluster 0's leader, result broadcast back down
		// the same leader tree.
		parent, children := binomialOver(ct.leaders, 0, ct.myCluster)
		b.fanIn(parent, children, acc, a.count, a.dt, a.op)
		b.fanOut(parent, children, acc)
	}

	// Phase D: scatter the result chunks back and circulate them with the
	// intra-cluster ring allgather.
	if c.myRank == leader {
		for i, mr := range members {
			if mr == c.myRank {
				continue
			}
			b.send(mr, chunk(i))
		}
		b.endRound()
	} else {
		b.recv(leader, chunk(myPos))
		b.endRound()
	}
	c.ringAGRounds(b, members, myPos, acc, bounds, es)
	return b.build(c.finUnpack(true, a.recv, a.count, a.dt, acc))
}

// compileReduceScatterRingHier is the two-level ring reduce-scatter:
// intra-cluster ring reduce-scatter of the full vector (in m near-equal
// chunks), chunk gather to the leader, then a leader pairwise bundle
// exchange in which cluster X ships cluster Y exactly the blocks Y's
// members will keep — |Y|·blockSize bytes per directed leader pair instead
// of the full vector — and finally each leader scatters the globally
// reduced block to its member. Bundle layout from X to Y: Y's members'
// blocks in ascending member order.
func (c *Comm) compileReduceScatterRingHier(a collArgs) *schedule {
	ct := c.topo()
	members, myPos, _ := c.clusterPos()
	leader := ct.leaders[ct.myCluster]
	es := a.dt.Size()
	sz := a.count * es
	total := a.count * c.Size()
	bounds := splitBounds(total, len(members))

	b := newSched("redscat.ringh")
	acc := b.accumulator(a.send, total, a.dt)
	chunk := func(i int) []byte { return acc[bounds[i]*es : bounds[i+1]*es] }
	block := func(r int) []byte { return acc[r*sz : (r+1)*sz] }
	fin := c.finUnpack(true, a.recv, a.count, a.dt, block(c.myRank))

	// Phase A: intra-cluster ring reduce-scatter over m chunks.
	c.ringRSRounds(b, members, myPos, acc, bounds, a.dt, a.op)

	if c.myRank != leader {
		// Phase B: my cluster-reduced chunk to the leader; Phase D: my
		// globally reduced block comes back.
		b.send(leader, chunk(myPos))
		b.endRound()
		b.recv(leader, block(c.myRank))
		b.endRound()
		return b.build(fin)
	}

	// Leader: reassemble the cluster-reduced full vector.
	for i, mr := range members {
		if mr == c.myRank {
			continue
		}
		b.recv(mr, chunk(i))
	}
	b.endRound()

	// Phase C: stage one outbound bundle per remote cluster (that
	// cluster's members' blocks), then exchange among leaders with the
	// receives pre-posted, folding each arriving bundle into my members'
	// blocks.
	out := make([][]byte, ct.nClusters)
	in := make([][]byte, ct.nClusters)
	for di := 0; di < ct.nClusters; di++ {
		if di == ct.myCluster {
			continue
		}
		dm := ct.clusters[di]
		out[di] = make([]byte, len(dm)*sz)
		in[di] = make([]byte, len(members)*sz)
		for j, dr := range dm {
			b.copyStep(out[di][j*sz:(j+1)*sz], block(dr))
		}
	}
	b.endRound()
	b.exchange(ct.leaders, ct.myCluster, in, out)
	for di := 0; di < ct.nClusters; di++ {
		if di == ct.myCluster {
			continue
		}
		for j, mr := range members {
			b.reduce(block(mr), in[di][j*sz:(j+1)*sz], a.count, a.dt, a.op)
		}
	}
	b.endRound()

	// Phase D: ship each member its globally reduced block.
	for _, mr := range members {
		if mr == c.myRank {
			continue
		}
		b.send(mr, block(mr))
	}
	b.endRound()
	return b.build(fin)
}

// compileAlltoallHier is the two-level all-to-all: members ship their
// whole send matrix to the cluster leader, leaders pairwise-exchange
// per-cluster bundles (each backbone link is crossed O(clusters) times
// instead of the pairwise rotation's O(n)), and each leader scatters the
// reassembled per-member receive vectors back.
//
// Bundle layout from cluster S to cluster D: blocks ordered by (source
// member index in S ascending, destination member index in D ascending).
//
// With segBytes > 0 and a non-empty block that fits one segment, the
// leader exchange is pipelined (alltoall.hseg): each bundle is cut into
// eager-path segments of whole blocks, at most segBytes each, and the
// staging copies are interleaved with the segment injections, so
// assembling segment k+1 overlaps segment k's flight across the backbone
// — the relay-pipelining idea at the schedule level. The segments also
// complete locally, eliminating the per-bundle rendez-vous handshakes
// over the slow link; the inbound segments buffer in the unexpected stash
// while this leader is still staging, and one late round collects them
// all. Otherwise (alltoall.h) each bundle is one segment whose receives
// are pre-posted in its send round.
func (c *Comm) compileAlltoallHier(a collArgs, segBytes int) *schedule {
	ct := c.topo()
	n := c.Size()
	sz := a.count * a.dt.Size()
	members := ct.clusters[ct.myCluster]
	leader := ct.leaders[ct.myCluster]
	mine := PackBuf(a.send, n*a.count, a.dt) // my full send matrix, dense
	segmented := sz > 0 && sz <= segBytes
	name := "alltoall.h"
	if segmented {
		name = "alltoall.hseg"
	}
	b := newSched(name)

	if c.myRank != leader {
		// Whole matrix up, whole receive vector (source-rank order) back.
		myRecv := make([]byte, n*sz)
		b.send(leader, mine)
		b.endRound()
		b.recv(leader, myRecv)
		b.endRound()
		return b.build(c.finUnpack(true, a.recv, n*a.count, a.dt, myRecv))
	}

	// Phase 1: gather every member's send matrix.
	mats := make([][]byte, len(members))
	for i, m := range members {
		if m == c.myRank {
			mats[i] = mine
			continue
		}
		mats[i] = make([]byte, n*sz)
		b.recv(m, mats[i])
	}
	b.endRound()

	// Phase 2: stage and inject the outbound bundles bps blocks at a time,
	// then collect the inbound ones (mirroring each sender's slicing of
	// its own bundle; FIFO matching per source pairs them in order).
	bps := n * n // every bundle in one segment
	if segmented {
		bps = segBytes / sz
	}
	nb := func(di int) int { return len(members) * len(ct.clusters[di]) }
	out := make([][]byte, ct.nClusters)
	in := make([][]byte, ct.nClusters)
	nSeg := 0
	for di := 0; di < ct.nClusters; di++ {
		if di == ct.myCluster {
			continue
		}
		out[di] = make([]byte, nb(di)*sz)
		in[di] = make([]byte, nb(di)*sz)
		nSeg = max(nSeg, (nb(di)+bps-1)/bps)
	}
	postRecvs := func() {
		for di := 0; di < ct.nClusters; di++ {
			if di == ct.myCluster {
				continue
			}
			for lo := 0; lo < nb(di); lo += bps {
				b.recv(ct.leaders[di], in[di][lo*sz:min(lo+bps, nb(di))*sz])
			}
		}
	}
	for s := 0; s < nSeg; s++ {
		lo := s * bps
		for di := 0; di < ct.nClusters; di++ {
			if di == ct.myCluster {
				continue
			}
			dm := ct.clusters[di]
			for k := lo; k < min(lo+bps, nb(di)); k++ {
				dst := dm[k%len(dm)]
				b.copyStep(out[di][k*sz:(k+1)*sz], mats[k/len(dm)][dst*sz:(dst+1)*sz])
			}
		}
		b.endRound()
		if !segmented {
			postRecvs()
		}
		for di := 0; di < ct.nClusters; di++ {
			if di != ct.myCluster && lo < nb(di) {
				b.send(ct.leaders[di], out[di][lo*sz:min(lo+bps, nb(di))*sz])
			}
		}
		b.endRound()
	}
	if segmented {
		postRecvs()
		b.endRound()
	}

	// Phase 3: assemble each member's receive vector and scatter.
	var myRecv []byte
	vec := make([][]byte, len(members))
	for j := range members {
		vec[j] = make([]byte, n*sz)
		for i, src := range members {
			b.copyStep(vec[j][src*sz:(src+1)*sz], mats[i][members[j]*sz:(members[j]+1)*sz])
		}
		for di := 0; di < ct.nClusters; di++ {
			if di == ct.myCluster {
				continue
			}
			for i, src := range ct.clusters[di] {
				blk := in[di][(i*len(members)+j)*sz : (i*len(members)+j+1)*sz]
				b.copyStep(vec[j][src*sz:(src+1)*sz], blk)
			}
		}
	}
	b.endRound()
	for j, m := range members {
		if m == c.myRank {
			myRecv = vec[j]
			continue
		}
		b.send(m, vec[j])
	}
	b.endRound()
	return b.build(c.finUnpack(true, a.recv, n*a.count, a.dt, myRecv))
}
