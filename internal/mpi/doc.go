// Package mpi is the application-facing MPI layer of the reproduction:
// communicators, point-to-point messaging, datatypes, reduction ops and
// the collective operations, built on the adi matching engine and the
// simulated devices below.
//
// # The collective schedule model
//
// Since PR 2 every collective — blocking or nonblocking, flat or
// hierarchical — is *schedule-driven*. Calling a collective compiles the
// selected algorithm into a schedule (schedule.go): a list of rounds
// whose steps are plain data — send, recv, local reduce, local copy —
// with inter-round data flow expressed through shared staging buffers.
// The communicator's progress engine (nbc.go) executes submitted
// schedules in order on a dedicated cooperative thread, so transfers
// advance whenever the application thread blocks, computes or yields:
// the paper's decoupling of communication progress from the application,
// applied to collectives (the libNBC/MPI-3 design).
//
// Algorithm selection happens once, at compile time, through the tuning
// table in topology.go (operation kind × payload size × cluster shape →
// flat, ring, two-level, two-level segmented, two-level ring or
// multi-leader). Every Icoll entry then calls the compiler the dispatch
// table in nbc.go holds for that (operation, family) pair; the same
// table tells sanitizeAlgo which pairs exist and the autotuner which
// candidates to time. The flat and ring compilers live in collectives.go,
// the two-level ones in hcoll.go and the multi-leader ones in hmulti.go,
// all built from the round primitives of schedule.go (binomial trees,
// fan-out, fan-in, leader bundle gather, pre-posted pairwise exchange);
// each algorithm has exactly one body, shared by the blocking and
// nonblocking entry points. Adding an algorithm means adding a compiler
// and a table entry — the executor, request handling and progress rules
// are untouched. testdata/schedules.golden pins every compiled schedule
// step for step.
//
// # Ring schedules
//
// Allreduce and ReduceScatter additionally compile to bandwidth-optimal
// ring schedules (ring reduce-scatter, optionally followed by a ring
// allgather): 2·(n−1) latency rounds, but only 2·(n−1)/n of the vector
// per link instead of the binomial tree's 2·log(n) full copies — the
// large-vector winner on any uniform fabric. On a cluster-of-clusters the
// flat ring is the *worst* choice (with interleaved placement every hop
// crosses the slow backbone), so the two-level ring forms run the rings
// inside each cluster around the same single leader exchange the tree
// forms use. Ring reductions apply op in member order around the ring and
// therefore assume a commutative op (all predefined ops are).
//
// # Routing and the gateway cost model
//
// On forwarded topologies (cluster.Topology.Forwarding, the paper's §6
// extension) rank pairs without a shared network communicate through
// multi-homed gateway nodes. Since PR 4 the paths come from a real
// routing subsystem (internal/route) instead of a hop-count BFS: every
// ordered pair gets the shortest-COST path under a model derived from
// netsim.Params — per-hop latency and overheads, size-dependent
// serialization at a reference payload, and a trunk-contention penalty
// on shared-bandwidth backbones. Three things in this package consume
// the result:
//
//   - Hierarchy.Leaders: the cluster session elects each cluster's
//     leader to minimize gateway traversals (ranks on gateway nodes win;
//     path cost breaks ties), and commTopo prefers that rank over the
//     lowest-comm-rank convention whenever it is in the communicator.
//     On a bridged 3-cluster topology this cuts the gateway hops of a
//     two-level Bcast by a third.
//   - Hierarchy.Inter: when leader exchanges are genuinely multi-hop,
//     the backbone link is recalibrated to the worst routed leader-pair
//     path (summed latency, bottleneck bandwidth and segment), so the
//     analytic thresholds and the broadcast segmentation rule reason
//     about the path a message actually takes.
//   - The devices: routes carry the path length and the bottleneck
//     pipeline segment, and ch_mad ships large multi-hop rendez-vous
//     bodies as independent per-segment messages, so a gateway re-emits
//     segment k while segment k+1 is still inbound (pipelined relay
//     instead of whole-body store-and-forward; 2.5-3.3x on balanced
//     3-gateway chains).
//
// The segmented two-level Alltoall applies the same idea inside a
// schedule: on contended backbones the leader bundle exchange is cut
// into eager segments with the staging copies interleaved between
// injections, trading the per-bundle rendez-vous handshakes for
// overlapped staging and transfer.
//
// # Routing at scale (1000+ ranks)
//
// Since the scale overhaul the planner no longer materializes all-pairs
// state. internal/route groups ranks into "blocs" — maximal sets with
// identical network signatures, interchangeable under a graph
// automorphism — and runs one quotient-graph Dijkstra per source bloc,
// lazily on first query, instead of N rank-level sweeps: on the scale
// machine (64 islands x 16 ranks = 1024 ranks behind one backbone) that
// is 128 blocs, and Plan.NextHop/Path/Cost resolve hierarchically with
// unchanged signatures and bit-identical results (pinned against the
// dense reference planner by a property test). Everything downstream is
// equally lazy: devices resolve rails through a per-destination resolver
// and cache them (a re-plan is an O(1) cache flush, not an O(N²)
// reinstall), link classes are memoized per bloc pair, leader election
// scores one candidate per bloc, and the autotuner keeps probing one
// representative pair per device class — so a session only ever pays for
// the pairs that actually communicate. The growth is machine-checked:
// BenchmarkScaleMachine samples the planner at 256 and 1024 ranks into
// BENCH_scale.json and cmd/benchcheck fails CI if the cost ratio
// approaches quadratic or the 1024-rank scale experiment exceeds its
// wall-clock ceiling.
//
// # Adaptive re-routing, striping, and admission control
//
// Since the multi-path refactor the route->relay->collective stack is a
// closed loop rather than a static plan:
//
//   - Multi-path planning: the planner computes up to K edge-disjoint
//     paths per pair (route.Options.MaxPaths; 2 by default on forwarded
//     topologies), and the cluster wiring installs them as rails on the
//     device. Large multi-hop rendez-vous bodies are striped across the
//     rails — segments are dealt to the rail with the earliest predicted
//     finish (pipeline fill + segments x bottleneck-hop cost, so a
//     one-bridge rail and a two-bridge detour split near-evenly once the
//     pipelines are full), tagged with their rail (header PathID) so
//     relaying gateways keep each stripe on the matching, non-backtracking
//     rail, and reassembled by offset at the receiver. On the bridged
//     triangle this roughly doubles forwarded bandwidth (>= 1.5x at
//     64 KiB, ~2x at 1 MiB — gated by cmd/benchcheck).
//   - Adaptive re-routing: cluster.Session.Replan feeds every gateway's
//     relay-queue high-water mark (Session.RelayStats' source counters)
//     back into the edge costs as a congestion term and recomputes the
//     plan, so a hot bridge prices itself out and traffic shifts to the
//     parallel rails. Replanning happens only when the application calls
//     it at a quiescent collective boundary — schedules stay
//     deterministic within a run. Routes update immediately (routing is
//     per message); leaders are re-elected from the new plan and
//     Process.RefreshHierarchy invalidates the world communicator's
//     cached topology so the next collective compiles against them.
//   - Gateway admission control: each relay's store-and-forward queue is
//     bounded by a credit window (core.Device.RelayWindow, set from
//     cluster.Topology.RelayWindow). A body packet must hold a credit
//     while stored; at a full gateway the polling thread parks until one
//     frees (backpressuring the inbound channel), and a relayed
//     rendez-vous REQUEST is refused with a busy nack — the sender backs
//     off exponentially and retries, so a transfer is only admitted when
//     the gateway can hold it. Drops (lossy-eager ablation, routing
//     holes) are counted by reason in stats.RelayTable.
//
// # Bandwidth aggregation: multi-leader collectives
//
// A single elected leader per cluster serializes the entire inter-cluster
// phase of a two-level collective through one gateway, leaving every
// other bridge the cluster fronts idle. The multi-leader forms
// (hmulti.go, CollHierMulti, tuning-table name "2level-multi") remove
// that funnel:
//
//   - Leader sets: cluster election widens each cluster's leader into a
//     set with one member per distinct gateway network the cluster
//     fronts (Hierarchy.LeaderSets, primary leader first, gateway labels
//     in Hierarchy.LeaderGateways). On the bridged triangle every island
//     borders two bridges, so every set has two gateway-diverse members.
//   - Sharding: the payload (or reduction vector, or bundle matrix) is
//     split into one shard per co-leader. Each shard's inter-cluster
//     journey is planned along its own gateway — for every cluster pair
//     the compiler picks the emissary co-leaders that share a bridge, so
//     a shard crosses each backbone gap in a single relayless hop. Bcast
//     pipelines eager-sized segments down per-shard gateway chains;
//     Allreduce/Allgather reduce-scatter across co-leaders and exchange
//     per-shard; Alltoall stripes each cluster-pair bundle across the
//     pair's distinct relay couples and ships the stripes in one duplex
//     segmented round.
//   - Redistribute rounds: intra-cluster fan-in/fan-out to and from the
//     co-leaders frames the backbone phase. The schedules keep every
//     pure-sink receive out of the pipelined rounds (deferred to
//     trailing bulk rounds) so no bridge ever waits a round trip for a
//     rank that is busy forwarding — the send order on every directed
//     pair equals the receiver's posted order, which is what makes the
//     one-tag FIFO matching safe.
//   - Rail hints: co-leader bundle exchanges inherit the multi-path
//     rails, so a direct pair with two installed rails stripes its
//     rendez-vous bundles exactly like a forwarded pair would.
//
// The aggregate effect on the bridged triangle at 1 MiB: Bcast engages
// all three bridges at half the bytes each (2x over the single-leader
// form), and Alltoall balances the three bridges exactly where the
// funneled form tripled the load on the leader's bridge (1.6x). The
// autotuner treats "2level-multi" as one more candidate — it wins the
// large-payload brackets on multi-gateway topologies and loses the
// latency brackets to the segmented single-leader form, and the
// crossover is measured, not assumed (the multileader experiment and the
// ML_* benchcheck rules gate the selected-not-forced speedups).
//
// # The per-link device mux
//
// A session's links are not interchangeable: the paper's headline
// configuration runs shared memory within a node, a SAN within each
// cluster and TCP between clusters, all at once. The cluster wiring
// classifies every ordered rank pair into a device class — "self"
// (intra-process, chself), "smp" (intra-node, smp_plug), "san"
// (intra-cluster SAN such as SCI or Myrinet/BIP) or "wan" (a commodity
// backbone) — and installs the classification on each rank as a lazy
// resolver (Process.SetLinkClassResolver) that classifies each
// destination on the first LinkClassOf query and memoizes it for the life
// of the process.
// Three layers consume it:
//
//   - Routing: internal/route's edge costs are device-aware — an eager
//     payload pays the class's intermediary-copy cost, a rendez-vous
//     payload its handshake round-trips — so the planner prefers the
//     transport a payload actually runs fastest on, not a uniform
//     reference curve.
//   - The devices: ch_mad routes carry their path's device class and
//     smallest native switch point, and Device.SwitchPointTo resolves
//     the eager->rendez-vous threshold per link (measured per-class
//     override, then the path's native threshold, then the historical
//     single elected value) instead of §4.2.2's one device-wide
//     election. cluster.Topology.Uniform restores the historical
//     single-protocol wiring as an ablation.
//   - Tuning: the MPI_Init autotuner probes one representative rank
//     pair per class (ClassProbe) with eager- and rendez-vous-forced
//     ping-pongs and broadcasts the measured per-class thresholds with
//     the crossover table; they install through adi.ClassTuner, appear
//     as "SwitchPoint" rows of TuneSnapshot, and persist through the
//     TuneCache like every other row.
//
// # The MPI_Init autotuner
//
// Process.Autotune (or cluster.Topology.Autotune) replaces the analytic
// selection thresholds with measured ones: at init, every candidate
// algorithm of every tunable operation is compiled and executed on the
// live topology over a small payload sweep — so the timings include rank
// placement, elected switch points and, when netsim models it, backbone
// trunk contention (netsim.Params.NetworkBandwidth). Rank 0 picks the
// fastest candidate per size, places crossovers at geometric midpoints,
// and broadcasts the (operation → size bracket → algorithm) table; every
// rank installs identical bytes, so CollAuto dispatch stays agreed
// everywhere. The sweep is deterministic in the topology (virtual time
// has no noise). Communicators resolve the table once, at their first
// collective; Process.TuneSnapshot exports it for reports, and
// Process.LoadTuneTable installs an exported table directly — the
// persistence path: cluster.Topology.TuneCache keys tables by a
// topology-shape hash (device classes, per-network switch points and
// the Uniform flag included), so repeated sessions of the same shape
// skip the sweep and load byte-identical rows.
//
// # The Icoll API
//
// The nonblocking collectives mirror MPI-3:
//
//	req, err := comm.Iallreduce(send, recv, count, dt, op)
//	... overlapped computation ...
//	err = req.Wait()        // or: done, err := req.Test()
//
// Ibarrier, Ibcast, Ireduce, Iallreduce, Igather, Iallgather and
// Ialltoall return a *CollRequest. Output buffers are defined only after
// Wait/Test reports completion; input buffers must stay untouched until
// then. All members must issue collectives on a communicator in the same
// order (the MPI rule); the engine relies on it to number schedules
// identically across ranks.
//
// Blocking Barrier/Bcast/Reduce/Allreduce/Gather/Allgather/Alltoall are
// compile-then-Wait wrappers around their I-twins. Gatherv, Scatterv,
// Scan and the point-to-point API are unchanged.
//
// # Determinism rules
//
// The simulator's core guarantee is that a run is a pure function of its
// inputs: same topology, same program, same seeds — bit-identical stats
// tables, virtual timestamps and routes, every time. That guarantee is
// what makes autotuned tables shareable (the TuneCache), experiment
// output diffable in CI, and rare protocol bugs reproducible at will.
// Simulation code (everything under internal/ except the linter itself)
// therefore follows four rules, machine-checked by `go run ./cmd/madlint
// ./...` (cmd/madlint, analyzers in internal/lint):
//
//   - No wall clock. time.Now/Sleep/After read or wait on host time;
//     simulation code uses vtime.Scheduler's virtual clock exclusively.
//   - No global math/rand. Anything random draws from an explicitly
//     seeded generator (netsim.PRNG) owned by the component, so seeds
//     travel with topologies, not with process start order.
//   - No preemptive concurrency. Raw `go` statements, sync.Mutex,
//     sync.WaitGroup and native channels are forbidden outside
//     internal/vtime: all parallelism is cooperative tasks scheduled by
//     the run token, which is what makes task interleavings replayable.
//   - No map-order effects. Iterating a Go map is randomized per run;
//     loop bodies must not push, fire, send, spawn or print per entry,
//     and slices collected from a map must be sorted before use
//     (iterate sorted keys, or append then sort.*).
//
// Two further madlint analyzers guard protocol structure: pktswitch
// proves every switch over an enum-shaped discriminator (core.PktType,
// adi control kinds, the madeleine/chp4 wire kinds, the collective
// algorithm/kind tables here) covers every constant or carries an
// explicit default; vtimectx proves no scheduler-context callback
// (Scheduler.At/After timers, Event.OnFire subscribers, netsim
// Endpoint.OnDeliver hooks) can reach a vtime-blocking primitive, which
// would panic "called outside a running task" at depth. A justified
// exception is silenced in place with `//madlint:ignore <analyzer>
// <reason>`; out-of-tree simulation files opt in with
// `//madlint:simulation`.
//
// The runtime counterpart is the Finalize-time invariant audit: after a
// clean run the cluster session calls Process.AuditDevices, and every
// device implementing adi.Auditor (ch_mad: core.Device.AuditInvariants)
// must be back at rest — relay credit window full, no rendez-vous syncs
// or stripe reassemblies open, drop counters consistent with their
// breakdown. The vtime scheduler's deadlock detector completes the
// picture: when no task is runnable and no event pending, Run returns a
// structured vtime.DeadlockError naming every task and what it waits on.
//
// # Observability
//
// The transport stack is instrumented end to end by internal/trace: a
// virtual-time event tracer, an always-on metrics registry, and a
// bounded flight-recorder ring. Tracing is off by default and costs one
// nil-check branch per hot path (measured by BenchmarkNilTracer), and
// it never moves a simulated time: internal/experiments holds a traced
// gateway run to the untraced text its golden file pins. Attach a
// tracer per topology
// (cluster.Topology.Trace) or process-wide (cluster.SetDefaultTracer —
// the `cmd/experiments -trace out.json` path).
//
// Event taxonomy, by trace.Kind and name:
//
//   - pkt: "eager.send"/"eager.recv" — short-protocol message
//     lifecycle, one span per send with src/dst/bytes/class.
//   - rndv: "rndv.req", "rndv.ok", "rndv.ack", "rndv.body",
//     "rndv.land" — the rendez-vous handshake and whole-body transfer;
//     "rndv.seg"/"rndv.seg.land" — striped segments, tagged with their
//     rail (header PathID), hop budget and byte offset; "rndv.nack" —
//     a busy-refused request.
//   - relay: "relay.hop" — one gateway forward (span covers the parked
//     store-and-forward time), with rail/hop tags; "relay.depth" — the
//     queue-occupancy counter track; "relay.drop".
//   - credit: "relay.credit.wait" — a body parked for an admission
//     credit; "relay.busy" — a refused rendez-vous request.
//   - sched: "sched.<op>" and "sched.round" — the collective progress
//     engine's schedule execution, one span per round with the ranks it
//     talks to ("s5,r0" = send to world rank 5, receive from 0);
//     "sched.submit" — a nonblocking collective entering the queue.
//   - net: "trunk.wait" — a packet queued behind other pipes' traffic
//     for a shared backbone trunk; "trunk.occ" — trunk occupancy.
//   - ctrl: "replan" — a Session.Replan, with the number of congested
//     gateways that fed the new plan.
//
// Reading traces: trace.Tracer.WriteChrome emits Chrome trace-event
// JSON with timestamps in virtual microseconds — load it in
// ui.perfetto.dev (or chrome://tracing). Each session is a process;
// each rank, each network and the session-control line are tracks
// within it. The registry (trace.Registry) always runs and holds the
// counts no other store keeps: eager and rendez-vous messages per device
// class, and trunk wait per node, which the RelayTable trunk-wait column
// (cluster.Session.RelayStats) reads with tracing off. Relay totals
// (messages, bytes, drops, deferred bodies, busy nacks, queue
// high-water) are core.Device fields, and trunk totals netsim Stats.
//
// The flight recorder closes the loop with the failure paths: a traced
// session points vtime.Scheduler.OnDeadlock at the tracer's ring, so a
// DeadlockError report ends with the last events before the hang, and
// core.Device.AuditInvariants appends the device's trace tail to a
// failed audit — the exchange that leaked the state, not just the leak.
//
// # Migration notes
//
// Callers of the former internal algorithm helpers (barrierFlat,
// bcastHier, reduceFlat, allgatherHier, ...) now use the public API plus
// Process.SetCollMode(CollFlat/CollHier) to pin an algorithm family; the
// helpers were replaced by compile* schedule compilers with identical
// message patterns. WaitAll now returns one *Status per request (nil for
// sends) alongside the first error; WaitAny waits event-driven on the
// virtual-time scheduler instead of polling.
package mpi
