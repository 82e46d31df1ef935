package marcel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpichmad/internal/vtime"
)

// refWaitPoll is WaitPoll as it was written before the scheduler stepped
// idle ticks: a loop on the polling thread's own goroutine. It is the
// reference the stepped implementation must match event for event.
func refWaitPoll[T any](p *Proc, q *vtime.Queue[T], spec PollSpec) T {
	for {
		if v, ok := q.TryPop(); ok {
			p.Compute(spec.DetectCost)
			return v
		}
		if spec.Interval <= 0 {
			v := q.Pop()
			p.Compute(spec.DetectCost)
			return v
		}
		if v, ok := q.PopTimeout(spec.Interval); ok {
			p.Compute(spec.DetectCost)
			return v
		}
		// Idle poll: burn the poll cost and go around.
		p.Compute(spec.IdleCost)
	}
}

type waitFunc func(p *Proc, q *vtime.Queue[int], spec PollSpec) int

// pollOutcome is everything a polling scenario exposes: the receive log
// (poller, item, virtual time) in receive order, each process's CPU time
// and the final clock.
type pollOutcome struct {
	Log  []string
	Busy []vtime.Duration
	Now  vtime.Time
	Err  string
}

// runPollScenario builds one seeded machine and runs it with wait as the
// polling primitive. The scenario draws several pollers per process (some
// sharing a queue, some daemons, some finishing after a fixed number of
// items), compute threads contending for their CPUs, and arrivals placed
// on tick deadlines, on burn boundaries, inside burns and at random,
// pushed from tasks and from At callbacks, some taken straight back.
func runPollScenario(seed int64, wait waitFunc) pollOutcome {
	rng := rand.New(rand.NewSource(seed))
	us := func(n int) vtime.Duration { return vtime.Duration(n) * vtime.Microsecond }
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }

	s := vtime.New()
	s.SetDeadline(vtime.Time(50 * vtime.Millisecond))
	var out pollOutcome
	procs := make([]*Proc, 1+rng.Intn(2))
	for pi := range procs {
		p := NewProc(s, fmt.Sprintf("n%d", pi))
		procs[pi] = p

		// shared holds the daemon pollers' queues, which a later poller
		// may poll too.
		var shared []*vtime.Queue[int]
		npoll := 1 + rng.Intn(3)
		for k := 0; k < npoll; k++ {
			spec := PollSpec{
				Interval:   us(pick(0, 10, 25, 25, 33)),
				IdleCost:   us(pick(0, 3, 8, 8, 15)),
				DetectCost: us(pick(0, 0, 1, 2)),
			}
			name := fmt.Sprintf("%s/poll%d", p.Name, k)
			var q *vtime.Queue[int]
			reused := len(shared) > 0 && rng.Intn(4) == 0
			if reused {
				q = shared[rng.Intn(len(shared))]
			} else {
				q = vtime.NewQueue[int](s, name+".q")
			}
			body := func(n int) {
				for i := 0; i != n; i++ {
					v := wait(p, q, spec)
					out.Log = append(out.Log, fmt.Sprintf("%s got %d at %d", name, v, s.Now()))
				}
			}
			// A finite poller owns its queue and receives n of the
			// arrivals on it, then exits; a daemon polls forever.
			arrivals := 1 + rng.Intn(5)
			finite := !reused && rng.Intn(3) == 0
			if finite {
				n := 1 + rng.Intn(3)
				arrivals = n + rng.Intn(3)
				p.Spawn(name, func() { body(n) })
			} else {
				if !reused {
					shared = append(shared, q)
				}
				p.SpawnDaemon(name, func() { body(-1) })
			}

			// Arrivals for q: tick deadlines (a*interval + b*cost), the
			// middle of a burn, or anywhere.
			iv, ic := int(spec.Interval/vtime.Microsecond), int(spec.IdleCost/vtime.Microsecond)
			for j := 0; j < arrivals; j++ {
				var at vtime.Duration
				switch rng.Intn(3) {
				case 0:
					at = us((1+rng.Intn(5))*iv + rng.Intn(4)*ic)
				case 1:
					at = us((1+rng.Intn(5))*(iv+ic)) - us(ic)/2
				default:
					at = vtime.Duration(rng.Intn(300)) * vtime.Microsecond / 2
				}
				// A pusher that takes the item straight back wakes the
				// poller for nothing: it must wait out the rest of its
				// tick.
				v := int(seed)*1000 + pi*100 + k*10 + j
				push := func() { q.Push(v) }
				if !finite && rng.Intn(3) == 0 {
					push = func() {
						q.Push(v)
						if w, ok := q.TryPop(); ok {
							out.Log = append(out.Log, fmt.Sprintf("took back %d at %d", w, s.Now()))
						}
					}
				}
				if rng.Intn(2) == 0 {
					s.At(vtime.Time(at), push)
				} else {
					p.Spawn("src", func() { p.Sleep(at); push() })
				}
			}
		}

		ncompute := rng.Intn(4)
		for c := 0; c < ncompute; c++ {
			rounds := 1 + rng.Intn(6)
			gap, work := us(rng.Intn(30)), us(1+rng.Intn(20))
			p.Spawn(fmt.Sprintf("compute%d", c), func() {
				for i := 0; i < rounds; i++ {
					p.Sleep(gap)
					p.Compute(work)
				}
			})
		}
	}
	// Keep the machine alive past the last arrival so daemons drain.
	procs[0].Spawn("tail", func() { procs[0].Sleep(us(400)) })

	if err := s.Run(); err != nil {
		out.Err = err.Error()
	}
	for _, p := range procs {
		out.Busy = append(out.Busy, p.CPUBusy)
	}
	out.Now = s.Now()
	return out
}

// TestWaitPollMatchesThreadLoop checks that stepping idle ticks in the
// scheduler changes nothing observable: on every seeded scenario, each
// item reaches the same poller at the same virtual time, in the same
// order, every process burns the same CPU and the run ends at the same
// instant as with the thread loop.
func TestWaitPollMatchesThreadLoop(t *testing.T) {
	const scenarios = 300
	var items int
	for seed := int64(1); seed <= scenarios; seed++ {
		got := runPollScenario(seed, WaitPoll[int])
		want := runPollScenario(seed, refWaitPoll[int])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: stepped poller diverged from the thread loop\n got: %+v\nwant: %+v", seed, got, want)
		}
		if want.Err != "" {
			t.Fatalf("seed %d: %s", seed, want.Err)
		}
		items += len(want.Log)
	}
	if items < scenarios {
		t.Fatalf("only %d items received over %d scenarios", items, scenarios)
	}
}
