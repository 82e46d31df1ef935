package experiments

// The measurement harness every multi-rank experiment shares: a per-op
// window over a fresh session, a two-rank ping-pong, and the collective
// calls the sweeps time. Each helper reproduces one exact op sequence;
// per-op virtual time depends on where the measured window starts, so
// callers pick the variant (fenced or not, fresh session or shared)
// their series were generated with.

import (
	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/stats"
	"mpichmad/internal/vtime"
)

// collOp is one timed call of a collective at payload size on rank rk.
type collOp func(rk *cluster.Rank, comm *mpi.Comm, size int) error

func bcast(_ *cluster.Rank, comm *mpi.Comm, size int) error {
	return comm.Bcast(make([]byte, size), size, mpi.Byte, 0)
}

func allreduce(_ *cluster.Rank, comm *mpi.Comm, size int) error {
	return comm.Allreduce(make([]byte, size), make([]byte, size), size, mpi.Byte, mpi.OpMax)
}

func allgather(_ *cluster.Rank, comm *mpi.Comm, size int) error {
	return comm.Allgather(make([]byte, size), make([]byte, size*comm.Size()), size, mpi.Byte)
}

func alltoall(_ *cluster.Rank, comm *mpi.Comm, size int) error {
	n := size * comm.Size()
	return comm.Alltoall(make([]byte, n), make([]byte, n), size, mpi.Byte)
}

// window is one measured per-op run: a fresh session on topo with every
// rank's collective selection set to mode (CollAuto, the zero value, is
// the session default), then iters back-to-back calls of op at size on
// every rank. With fenced set, a Barrier opens the window and a second
// one closes it, and rank 0 calls mark (if set) after each of them.
type window struct {
	topo   cluster.Topology
	mode   mpi.CollMode
	fenced bool
	iters  int
	size   int
	op     collOp // nil runs the window empty
	mark   func(sess *cluster.Session)
}

// run returns rank 0's mean time per op and the finished session.
func (w window) run() (vtime.Duration, *cluster.Session, error) {
	sess, err := cluster.Build(w.topo)
	if err != nil {
		return 0, nil, err
	}
	for _, rk := range sess.Ranks {
		rk.MPI.SetCollMode(w.mode)
	}
	fence := func(rank int, comm *mpi.Comm) error {
		if !w.fenced {
			return nil
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if rank == 0 && w.mark != nil {
			w.mark(sess)
		}
		return nil
	}
	var perOp vtime.Duration
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if err := fence(rank, comm); err != nil {
			return err
		}
		start := sess.S.Now()
		for i := 0; w.op != nil && i < w.iters; i++ {
			if err := w.op(sess.Ranks[rank], comm, w.size); err != nil {
				return err
			}
		}
		if rank == 0 {
			perOp = sess.S.Now().Sub(start) / vtime.Duration(w.iters)
		}
		return fence(rank, comm)
	})
	if err != nil {
		return 0, nil, err
	}
	return perOp, sess, nil
}

// pingPong runs one session in which ranks a and b bounce a message of
// each size twice (a sends first, tag 1) while every other rank idles.
// It returns a's mean one-way time per size.
func pingPong(sess *cluster.Session, a, b int, sizes ...int) (*stats.Series, error) {
	const iters = 2
	s := &stats.Series{}
	err := sess.Run(func(rank int, comm *mpi.Comm) error {
		if rank != a && rank != b {
			return nil
		}
		peer := a + b - rank
		for _, size := range sizes {
			buf := make([]byte, size)
			start := sess.S.Now()
			for i := 0; i < iters; i++ {
				if rank == a {
					if err := comm.Send(buf, size, mpi.Byte, peer, 1); err != nil {
						return err
					}
				}
				if _, err := comm.Recv(buf, size, mpi.Byte, peer, 1); err != nil {
					return err
				}
				if rank == b {
					if err := comm.Send(buf, size, mpi.Byte, peer, 1); err != nil {
						return err
					}
				}
			}
			if rank == a {
				s.Add(size, sess.S.Now().Sub(start)/(2*iters))
			}
		}
		return nil
	})
	return s, err
}
