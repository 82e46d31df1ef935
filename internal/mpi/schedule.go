// Collective schedules: the intermediate representation every collective
// algorithm (flat or hierarchical) compiles into, and the executor that
// the per-communicator progress engine (nbc.go) drives.
//
// A schedule is a DAG of rounds linearized in dependency order. Each round
// holds steps of four kinds — send, recv, local reduce, local copy — with
// the invariant that a round's transfers are independent of each other:
// the executor pre-posts every receive of the round, streams out the
// sends, waits for the receives, then runs the round's local steps in
// listed order. Data dependencies between rounds are expressed purely
// through shared staging buffers: a send step in round k+1 that names a
// buffer filled by a receive in round k automatically forwards the
// received bytes, which is how store-and-forward trees and pipelined
// segments are written as plain data.
//
// Compiling an algorithm therefore fixes, at submit time, every message
// (peer, payload, order) and every CPU charge the operation will incur;
// executing it needs no algorithm-specific code at all. This is the
// libNBC/MPI-3 nonblocking-collectives design: new algorithms (two-level
// Alltoall, ring Allreduce, autotuner sweeps) are new compilers producing
// the same IR, not new execution paths.
//
// The compilers share the round primitives defined here: binomial trees
// over positions (binomial) or rank lists (binomialOver), the tree
// broadcast (fanOut) and tree reduce (fanIn), the leader bundle gather
// (gatherBundle) and the pre-posted pairwise exchange (exchange). The
// dispatch table mapping (operation, family) to a compiler is in nbc.go.
package mpi

import (
	"fmt"
	"strings"

	"mpichmad/internal/adi"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// stepKind discriminates schedule steps.
type stepKind int

const (
	stepSend   stepKind = iota // transmit buf to peer
	stepRecv                   // land a message from peer into buf
	stepReduce                 // dst = op(dst, src), count elements of dt
	stepCopy                   // dst = src, charged as a local memcpy
)

// step is one schedule operation. Transfers use peer (comm rank) and buf;
// local steps use dst/src (reduce additionally count/dt/op).
type step struct {
	kind stepKind
	peer int
	buf  []byte

	dst, src []byte
	count    int
	dt       Datatype
	op       Op
}

// round is a set of steps whose transfers may be in flight concurrently.
// Multi-leader compilers annotate rounds with the shard lane they ride
// (schedBuilder.lane): leader1 is 1 + the co-leader (shard) index — zero
// means untagged — and gw names the gateway network that lane crosses, so
// trace spans show the parallel gateway lanes side by side.
type round struct {
	steps   []step
	leader1 int16
	gw      string
}

// schedule is a compiled collective operation.
type schedule struct {
	name   string
	rounds []round
	// fin runs after the last round: unpacking staging into the user's
	// receive buffer plus the associated CPU charge. May be nil.
	fin func()
}

// schedBuilder accumulates rounds. The zero value (via newSched) starts
// with an open empty round; endRound closes it and opens the next.
// leader1/gw are the lane stamped on every round sealed from now on.
type schedBuilder struct {
	sch     *schedule
	cur     round
	leader1 int16
	gw      string
}

func newSched(name string) *schedBuilder {
	return &schedBuilder{sch: &schedule{name: name}}
}

// endRound seals the open round (dropped when empty) and opens a new one.
func (b *schedBuilder) endRound() {
	if len(b.cur.steps) > 0 {
		b.cur.leader1, b.cur.gw = b.leader1, b.gw
		b.sch.rounds = append(b.sch.rounds, b.cur)
		b.cur = round{}
	}
}

func (b *schedBuilder) send(to int, buf []byte) {
	b.cur.steps = append(b.cur.steps, step{kind: stepSend, peer: to, buf: buf})
}

func (b *schedBuilder) recv(from int, buf []byte) {
	b.cur.steps = append(b.cur.steps, step{kind: stepRecv, peer: from, buf: buf})
}

func (b *schedBuilder) reduce(dst, src []byte, count int, dt Datatype, op Op) {
	b.cur.steps = append(b.cur.steps, step{kind: stepReduce, dst: dst, src: src, count: count, dt: dt, op: op})
}

func (b *schedBuilder) copyStep(dst, src []byte) {
	b.cur.steps = append(b.cur.steps, step{kind: stepCopy, dst: dst, src: src})
}

// lane tags every round sealed from now on with the co-leader (shard)
// index and the gateway network its transfers ride (multi-leader trace
// annotation).
func (b *schedBuilder) lane(leaderIdx int, gw string) {
	b.leader1, b.gw = int16(leaderIdx+1), gw
}

// accumulator opens a reduction: a round copying this rank's packed
// count-element contribution into a fresh accumulator, which it returns.
func (b *schedBuilder) accumulator(send []byte, count int, dt Datatype) []byte {
	acc := make([]byte, count*dt.Size())
	b.copyStep(acc, PackBuf(send, count, dt))
	b.endRound()
	return acc
}

// binomial is the binomial tree over positions 0..n-1 rooted at rootPos:
// myPos's parent (-1 at the root) and children, largest stride first.
func binomial(n, rootPos, myPos int) (parent int, children []int) {
	parent = -1
	rel := (myPos - rootPos + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent = (rel - mask + rootPos) % n
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			children = append(children, (rel+mask+rootPos)%n)
		}
	}
	return parent, children
}

// binomialOver is binomial over an explicit rank list: positions index
// members, and the parent and children come back as ranks.
func binomialOver(members []int, rootPos, myPos int) (parent int, children []int) {
	parent, children = binomial(len(members), rootPos, myPos)
	if parent >= 0 {
		parent = members[parent]
	}
	for i, ch := range children {
		children[i] = members[ch]
	}
	return parent, children
}

// fanOut appends a tree broadcast of buf: a round receiving it from
// parent (none at the root), then a round sending it to every child.
func (b *schedBuilder) fanOut(parent int, children []int, buf []byte) {
	if parent >= 0 {
		b.recv(parent, buf)
		b.endRound()
	}
	for _, ch := range children {
		b.send(ch, buf)
	}
	b.endRound()
}

// fanIn appends a tree reduce into acc: one round receiving every
// child's partial (smallest subtree first) and folding it into acc, then
// a round forwarding acc to parent (none at the root). A nil acc is the
// barrier fan-in: empty messages, nothing to fold.
func (b *schedBuilder) fanIn(parent int, children []int, acc []byte, count int, dt Datatype, op Op) {
	for i := len(children) - 1; i >= 0; i-- {
		if acc == nil {
			b.recv(children[i], nil)
			continue
		}
		part := make([]byte, len(acc))
		b.recv(children[i], part)
		b.reduce(acc, part, count, dt, op)
	}
	b.endRound()
	if parent >= 0 {
		b.send(parent, acc)
		b.endRound()
	}
}

// gatherBundle appends the leader bundle gather: every member of members
// but leader sends its block mine to leader in a round of its own; the
// leader lands the blocks in member order in one round and returns the
// bundle (nil on the other members).
func (b *schedBuilder) gatherBundle(me, leader int, members []int, mine []byte) []byte {
	if me != leader {
		b.send(leader, mine)
		b.endRound()
		return nil
	}
	sz := len(mine)
	bundle := make([]byte, len(members)*sz)
	for i, m := range members {
		slot := bundle[i*sz : (i+1)*sz]
		if m == me {
			b.copyStep(slot, mine)
			continue
		}
		b.recv(m, slot)
	}
	b.endRound()
	return bundle
}

// exchange appends a pairwise exchange with every peer but peers[self]:
// receives into in[i] first, then sends of out[i], in one round, so the
// receives are pre-posted and concurrent rendez-vous bodies cannot
// deadlock. The round stays open for local steps consuming in.
func (b *schedBuilder) exchange(peers []int, self int, in, out [][]byte) {
	for i, p := range peers {
		if i != self {
			b.recv(p, in[i])
		}
	}
	for i, p := range peers {
		if i != self {
			b.send(p, out[i])
		}
	}
}

// finUnpack is the usual completion closure: on the ranks where mine
// holds, charge one memcpy of packed and unpack it into count elements of
// dt in recv.
func (c *Comm) finUnpack(mine bool, recv []byte, count int, dt Datatype, packed []byte) func() {
	return func() {
		if mine {
			c.p.M.Compute(c.p.memTime(len(packed)))
			UnpackBuf(recv, count, dt, packed)
		}
	}
}

// build seals the schedule with its completion closure.
func (b *schedBuilder) build(fin func()) *schedule {
	b.endRound()
	b.sch.fin = fin
	return b.sch
}

// local reports whether the schedule moves no bytes over the network
// (size-1 communicators, self-rooted trivial cases); such schedules run
// inline at submit instead of through the progress engine.
func (sch *schedule) local() bool {
	for _, rd := range sch.rounds {
		for _, st := range rd.steps {
			if st.kind == stepSend || st.kind == stepRecv {
				return false
			}
		}
	}
	return true
}

// execSchedule runs a compiled schedule to completion on the calling
// (engine) thread. All messages travel on the communicator's collective
// context under the schedule's unique tag; FIFO matching per (source, tag)
// pairs same-peer transfers of different rounds correctly because both
// sides order them identically.
//
// Receives are pre-posted with an adi completion hook counting down to a
// per-round event, so a round with many receives blocks exactly once
// however the completions interleave with the round's outbound sends.
func (c *Comm) execSchedule(sch *schedule, tag int) error {
	tr := c.p.tracer
	var op0 vtime.Time
	if tr != nil {
		op0 = c.p.M.S.Now()
	}
	err := c.execRounds(sch, tag, tr)
	if tr != nil {
		tr.Span(c.p.traceTrack, trace.KSched, "sched."+sch.name, op0, trace.Args{
			Seq: uint32(tag), Val: int64(len(sch.rounds)),
		})
	}
	return err
}

func (c *Comm) execRounds(sch *schedule, tag int, tr *trace.Tracer) error {
	for ri := range sch.rounds {
		rd := &sch.rounds[ri]
		var rd0 vtime.Time
		if tr != nil {
			rd0 = c.p.M.S.Now()
		}

		nRecv := 0
		for _, st := range rd.steps {
			if st.kind == stepRecv {
				nRecv++
			}
		}
		var recvsDone *vtime.Event
		var rrs []*adi.RecvReq
		if nRecv > 0 {
			recvsDone = vtime.NewEvent(c.p.M.S, "mpi.sched."+sch.name)
			pending := nRecv
			for _, st := range rd.steps {
				if st.kind != stepRecv {
					continue
				}
				rr := &adi.RecvReq{
					Src: c.group[st.peer], Tag: tag, Context: c.collCtx(),
					Buf:  st.buf,
					Done: vtime.NewEvent(c.p.M.S, "mpi.sched.recv"),
					OnComplete: func() {
						pending--
						if pending == 0 {
							recvsDone.Fire()
						}
					},
				}
				c.p.Eng.PostRecv(rr)
				rrs = append(rrs, rr)
			}
		}

		for _, st := range rd.steps {
			if st.kind != stepSend {
				continue
			}
			if err := c.sendRaw(st.buf, st.peer, tag, c.collCtx()); err != nil {
				return err
			}
		}

		if recvsDone != nil {
			recvsDone.Wait()
			for _, rr := range rrs {
				if rr.Err != nil {
					return rr.Err
				}
			}
		}

		for _, st := range rd.steps {
			switch st.kind {
			case stepReduce:
				if err := st.op.Apply(st.dst, st.src, st.count, st.dt); err != nil {
					return err
				}
			case stepCopy:
				c.p.M.Compute(c.p.memTime(len(st.src)))
				copy(st.dst, st.src)
			case stepSend, stepRecv:
				// Network steps were issued at round start; nothing to
				// apply locally.
			}
		}
		if tr != nil {
			tr.Span(c.p.traceTrack, trace.KSched, "sched.round", rd0, trace.Args{
				Seq: uint32(tag), Val: int64(ri),
				Bytes: roundBytes(rd), Class: roundPeers(c, rd),
				Leader: rd.leader1, GW: rd.gw,
			})
		}
	}
	if sch.fin != nil {
		sch.fin()
	}
	return nil
}

// roundBytes totals a round's outbound payload (trace annotation).
func roundBytes(rd *round) int64 {
	var n int64
	for _, st := range rd.steps {
		if st.kind == stepSend {
			n += int64(len(st.buf))
		}
	}
	return n
}

// roundPeers summarizes who a round talks to, in world ranks, for the
// round's trace span: "s5,r0" = one send to world rank 5, one receive
// from world rank 0 — the leaders and neighbours each round engages.
// Bounded at 6 entries; only built when tracing is on.
func roundPeers(c *Comm, rd *round) string {
	var parts []string
	extra := 0
	for _, st := range rd.steps {
		if st.kind != stepSend && st.kind != stepRecv {
			continue
		}
		if len(parts) >= 6 {
			extra++
			continue
		}
		dir := "s"
		if st.kind == stepRecv {
			dir = "r"
		}
		parts = append(parts, fmt.Sprintf("%s%d", dir, c.group[st.peer]))
	}
	if extra > 0 {
		parts = append(parts, fmt.Sprintf("+%d", extra))
	}
	return strings.Join(parts, ",")
}
