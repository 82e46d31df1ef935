package vtime

// PollWait blocks the calling task until q yields an item, polling it
// every interval (§3.3 of the paper): each idle tick times out on q,
// tries once more, then burns cost of the cpu semaphore's CPU, adding it
// to *busy. interval <= 0 waits for an arrival with no idle ticks.
//
// It is the loop
//
//	for {
//		if v, ok := q.PopTimeout(interval); ok { // q.Pop() if interval <= 0
//			return v
//		}
//		cpu.Acquire(); *busy += cost; Sleep(cost); cpu.Release() // if cost > 0
//	}
//
// with every timer armed and every wait list and ready queue entry made
// in the same order, so it yields the loop's virtual times exactly. But
// the idle ticks are stepped by the dispatcher as the task's
// continuation: the goroutine parks once and wakes only when an item has
// been popped.
func PollWait[T any](q *Queue[T], cpu *Sem, interval, cost Duration, busy *Duration) T {
	t := q.s.cur("PollWait")
	m := &pollWait[T]{t: t, q: q, cpu: cpu, interval: interval, cost: cost, busy: busy}
	if m.tick() {
		t.step = m.step
		q.s.switchOut(t)
	}
	return m.v
}

// pollPhase is where a parked poll machine waits.
type pollPhase int

const (
	pollQueue pollPhase = iota // on the queue, until an arrival or the tick deadline
	pollCPU                    // on the cpu semaphore, for the idle burn
	pollBurn                   // asleep, burning the idle cost
)

// pollWait is the state of one PollWait. Its methods run either on the
// task's goroutine or as its continuation, with no task running, so none
// of them may block: each state change that parks the task only marks it
// blocked and returns true.
type pollWait[T any] struct {
	t              *Task
	q              *Queue[T]
	cpu            *Sem
	interval, cost Duration
	busy           *Duration

	deadline Time
	phase    pollPhase
	v        T
}

// step continues the machine after the task was woken.
func (m *pollWait[T]) step() bool {
	switch m.phase {
	case pollCPU: // Release handed the permit over
		return m.burn()
	case pollBurn:
		m.cpu.Release()
		return m.tick()
	default: // pollQueue
		if !m.t.timedOut {
			return m.wait() // an arrival, unless another task took it first
		}
		// One last chance: an item may have been pushed at the exact
		// deadline tick after the timer fired.
		if v, ok := m.q.TryPop(); ok {
			m.v = v
			return false
		}
		return m.idle()
	}
}

// tick starts an idle tick: a timed wait on the queue.
func (m *pollWait[T]) tick() bool {
	m.deadline = m.q.s.now.Add(m.interval)
	return m.wait()
}

// wait pops an item or parks on the queue until the tick deadline.
func (m *pollWait[T]) wait() bool {
	if v, ok := m.q.TryPop(); ok {
		m.v = v
		return false
	}
	s := m.q.s
	timeout, wl := Duration(-1), waitList(nil)
	if m.interval > 0 {
		timeout, wl = m.deadline.Sub(s.now), m.q
		if timeout < 0 {
			return m.idle()
		}
	}
	m.q.waiters = append(m.q.waiters, m.t)
	s.await(m.t, "queue", m.q.name, timeout, wl)
	m.phase = pollQueue
	return true
}

// idle burns the idle cost on the CPU, queueing for it if it is busy.
func (m *pollWait[T]) idle() bool {
	if m.cost <= 0 {
		return m.tick()
	}
	if !m.cpu.TryAcquire() {
		m.cpu.waiters = append(m.cpu.waiters, m.t)
		m.q.s.await(m.t, "sem", m.cpu.name, -1, nil)
		m.phase = pollCPU
		return true
	}
	return m.burn()
}

// burn charges the idle cost while holding the CPU.
func (m *pollWait[T]) burn() bool {
	*m.busy += m.cost
	m.q.s.doze(m.t, m.cost)
	m.phase = pollBurn
	return true
}
