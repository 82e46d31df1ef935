package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// counters are the run phase's deterministic transport counters: deltas
// from the first rank-main entry to the end of Run, except the peaks,
// which are session-wide high-water marks.
type counters struct {
	Packets, WireBytes   uint64
	TrunkWait            vtime.Duration
	TrunkPeak            int
	EagerSAN, EagerWAN   int64
	RndvSAN, RndvWAN     int64
	Forwarded, RelayByte uint64
	RelayDeferred        uint64
	RelayBusy            uint64
	RndvRetries          uint64
	RelayDrops           uint64
	RelayQPeak           int
}

func readCounters(sess *cluster.Session) counters {
	var c counters
	for _, net := range sess.Networks {
		c.Packets += net.Stats.Packets
		c.WireBytes += net.Stats.Bytes
		c.TrunkWait += net.Stats.TrunkQueueDelay
		c.TrunkPeak = max(c.TrunkPeak, net.Stats.TrunkPeak)
	}
	c.EagerSAN = sess.Metrics.Get("eager.msgs", "san")
	c.EagerWAN = sess.Metrics.Get("eager.msgs", "wan")
	c.RndvSAN = sess.Metrics.Get("rndv.msgs", "san")
	c.RndvWAN = sess.Metrics.Get("rndv.msgs", "wan")
	for _, rk := range sess.Ranks {
		d := rk.ChMad
		c.Forwarded += d.NForwarded
		c.RelayByte += d.RelayBytes
		c.RelayDeferred += d.NRelayDeferred
		c.RelayBusy += d.NRelayBusy
		c.RndvRetries += d.NRndvRetries
		c.RelayDrops += d.NRelayDrops
		c.RelayQPeak = max(c.RelayQPeak, d.RelayQueuePeak)
	}
	return c
}

// since is c minus an earlier reading; peaks are kept as they are.
func (c counters) since(start counters) counters {
	d := c
	d.Packets -= start.Packets
	d.WireBytes -= start.WireBytes
	d.TrunkWait -= start.TrunkWait
	d.EagerSAN -= start.EagerSAN
	d.EagerWAN -= start.EagerWAN
	d.RndvSAN -= start.RndvSAN
	d.RndvWAN -= start.RndvWAN
	d.Forwarded -= start.Forwarded
	d.RelayByte -= start.RelayByte
	d.RelayDeferred -= start.RelayDeferred
	d.RelayBusy -= start.RelayBusy
	d.RndvRetries -= start.RndvRetries
	d.RelayDrops -= start.RelayDrops
	return d
}

// virtual is everything one pass measures on the virtual clock. A seed
// fixes it: every pass of a run must reproduce it bit for bit, traced or
// not.
type virtual struct {
	init    vtime.Duration // first rank-main entry: the modelled MPI_Init
	span    vtime.Duration // run-phase makespan
	landed  int64          // verified payload bytes delivered
	ok      int            // operations verified correct
	lat     []float64      // per-sample latency, µs
	counter counters
}

func (v *virtual) equal(w *virtual) bool {
	return v.init == w.init && v.span == w.span && v.landed == w.landed &&
		v.ok == w.ok && v.counter == w.counter && slices.Equal(v.lat, w.lat)
}

// pass is one fresh session of a workload: build, MPI_Init, the job's
// traffic, Finalize.
type pass struct {
	setup, build, init, run time.Duration // host CPU time, see cpuTime
	mallocs                 uint64        // heap allocations in the run phase
	allocSetup, allocRun    uint64        // heap bytes allocated before and after the first rank-main entry
	virt                    virtual
	spans                   spanSums // traced passes only
	err                     error
}

// runPass executes one pass. With a tracer it records the session's
// event stream and sums the spans recorded in the run phase. A nil job
// makes a set-up-only pass: every rank main returns at once.
func runPass(w workload, j job, tr *trace.Tracer) *pass {
	p := &pass{}
	runtime.GC() // start from the same heap state, whatever ran before
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := cpuTime()
	topo := w.topo()
	topo.Trace = tr
	sess, err := cluster.Build(topo)
	if err != nil {
		p.err = fmt.Errorf("build: %w", err)
		return p
	}
	t1 := cpuTime()
	samples := 0
	if j != nil {
		samples = j.samples()
	}
	rec := newRecorder(sess.S, samples)
	var (
		entered bool
		tMain   time.Duration
		start   counters
		mark    int
	)
	err = sess.Run(func(rank int, comm *mpi.Comm) error {
		if !entered {
			entered = true
			tMain = cpuTime()
			p.virt.init = vtime.Duration(sess.S.Now())
			start = readCounters(sess)
			mark = len(tr.Events())
			runtime.ReadMemStats(&ms1)
		}
		if j == nil {
			return nil
		}
		return j.main(rank, comm, rec)
	})
	t2 := cpuTime()
	runtime.ReadMemStats(&ms2)
	if !entered {
		tMain, ms1 = t2, ms2
	}
	p.build, p.init, p.setup, p.run = t1-t0, tMain-t1, tMain-t0, t2-tMain
	p.allocSetup = ms1.TotalAlloc - ms0.TotalAlloc
	p.allocRun = ms2.TotalAlloc - ms1.TotalAlloc
	p.mallocs = ms2.Mallocs - ms1.Mallocs
	p.virt.lat, p.virt.span = rec.latencies()
	p.virt.ok, p.virt.landed = rec.ok, rec.landed
	p.virt.counter = readCounters(sess).since(start)
	if tr != nil {
		p.spans = sumSpans(tr.Events()[mark:])
	}
	if err != nil {
		p.err = fmt.Errorf("run: %w", err)
	}
	return p
}

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads: the host clock every host-time metric reads. On
// a shared machine it excludes the time other tenants hold the CPU,
// which wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
