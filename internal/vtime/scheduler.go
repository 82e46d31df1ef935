package vtime

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// taskState describes where a task currently lives.
type taskState int

const (
	stateNew taskState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

func (st taskState) String() string {
	switch st {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "?"
}

// Task is a cooperative unit of execution scheduled in virtual time.
// A task runs on its own goroutine but only while it holds the run token,
// so at most one task executes at any moment. The token passes directly
// from task to task: a task that gives it up runs the event loop itself
// and resumes the next ready task with one send on that task's resume
// channel (or simply carries on, if the next task is itself).
type Task struct {
	s      *Scheduler
	id     int
	name   string
	daemon bool
	state  taskState

	// resume carries the run token to this task's parked goroutine.
	// Teardown closes it, and a closed receive exits the goroutine.
	resume chan struct{}

	// waitGen is bumped each time the task is woken; pending timeout
	// timers carry the generation at which they were armed so stale
	// timers can be ignored.
	waitGen  uint64
	timedOut bool
	// waitKind and waitName describe what a blocked task waits on
	// ("sem", "n0.cpu"). They are joined into a label only when a
	// deadlock report is built.
	waitKind string
	waitName string
	// waitList is the wait list the task is on, if its wait can time
	// out; a timeout that fires first detaches the task from it.
	waitList waitList

	// step, when set, is the continuation of a blocked task: dispatch
	// runs it in place of resuming the goroutine when the task is next
	// picked. It returns true if it parked the task again, false once the
	// goroutine must run.
	step func() bool
}

// waitList is a primitive whose waiters may time out. Storing it in an
// interface rather than a cancel closure keeps a timed wait free of
// allocations.
type waitList interface {
	cancelWait(t *Task)
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// ID returns the task's unique id (assigned in spawn order).
func (t *Task) ID() int { return t.id }

// waitLabel renders the task's wait reason for a deadlock report.
func (t *Task) waitLabel() string {
	if t.waitName == "" {
		return t.waitKind
	}
	return t.waitKind + " " + t.waitName
}

// timer is an entry in the scheduler's timer heap: either a task wakeup
// (possibly a timeout for a blocked task) or a callback.
type timer struct {
	when Time
	seq  uint64

	task      *Task
	gen       uint64 // waitGen at arming time (task wakeups only)
	isTimeout bool

	fn func()
}

// before orders timers by due time, then by arming order.
func (e *timer) before(o *timer) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// Scheduler is the discrete-event simulation kernel. Create one with New,
// spawn tasks with Go, then call Run. All methods other than construction
// and Go-before-Run must be called from inside a running task (or, where
// documented, from an At callback).
type Scheduler struct {
	now Time
	seq uint64
	// rdy is the FIFO ready queue as a head-index ring: live entries are
	// rdy[rdyHead:], pops advance rdyHead in O(1), and the dead prefix is
	// compacted away once it dominates the slice so the backing array stays
	// bounded by the peak queue depth (the old copy-down pop was O(n) per
	// scheduling decision — the simulator's hot path at thousands of tasks).
	rdy     []*Task
	rdyHead int
	// tmrs is a binary min-heap of timer values ordered by timer.before.
	tmrs []timer

	running *Task
	// result carries Run's outcome from whichever goroutine ends the
	// simulation: nil, a *DeadlockError or the deadline error.
	result chan error

	nextID int
	live   int // live non-daemon tasks
	tasks  map[int]*Task

	deadline Time
	started  bool

	// OnDeadlock, when set, supplies extra context lines for deadlock
	// reports — the cluster layer points it at the trace flight
	// recorder's tail so the last events before the hang travel with
	// the error. It runs only when a deadlock is being built and must
	// not touch the scheduler.
	OnDeadlock func() []string
}

// New creates an empty scheduler with the clock at 0 and no deadline.
func New() *Scheduler {
	return &Scheduler{
		result:   make(chan error, 1),
		tasks:    make(map[int]*Task),
		deadline: Time(1<<63 - 1),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetDeadline aborts Run with an error if virtual time would advance past
// t. Useful as a watchdog against livelock (e.g. runaway polling loops).
func (s *Scheduler) SetDeadline(t Time) { s.deadline = t }

// Go spawns a new task. It may be called before Run or from a running
// task. The task becomes runnable immediately (FIFO order).
func (s *Scheduler) Go(name string, fn func()) *Task {
	return s.spawn(name, false, fn)
}

// GoDaemon spawns a daemon task: Run returns once every non-daemon task
// has finished, regardless of daemons still blocked or sleeping (they are
// torn down cleanly). Polling threads are daemons.
func (s *Scheduler) GoDaemon(name string, fn func()) *Task {
	return s.spawn(name, true, fn)
}

func (s *Scheduler) spawn(name string, daemon bool, fn func()) *Task {
	t := &Task{
		s:      s,
		id:     s.nextID,
		name:   name,
		daemon: daemon,
		state:  stateReady,
		resume: make(chan struct{}),
	}
	s.nextID++
	s.tasks[t.id] = t
	if !daemon {
		s.live++
	}
	s.rdy = append(s.rdy, t)
	go s.taskMain(t, fn)
	return t
}

func (s *Scheduler) taskMain(t *Task, fn func()) {
	t.park()
	fn()
	t.state = stateDone
	delete(s.tasks, t.id)
	if !t.daemon {
		s.live--
	}
	s.running = nil
	if next := s.dispatch(); next != nil {
		next.resume <- struct{}{}
	}
}

// park waits for the run token. A closed resume channel means the
// simulation is over: the goroutine exits without running any more of
// the task.
func (t *Task) park() {
	if _, ok := <-t.resume; !ok {
		runtime.Goexit()
	}
}

// Run executes the simulation until every non-daemon task completes.
// It returns an error on deadlock (live tasks but no pending events) or if
// the virtual deadline is exceeded. Run only starts the first dispatch;
// the tasks pass the token among themselves and the one that ends the
// simulation reports the outcome. Every goroutine still parked is then
// released to exit.
func (s *Scheduler) Run() error {
	if s.started {
		return fmt.Errorf("vtime: scheduler already run")
	}
	s.started = true
	if next := s.dispatch(); next != nil {
		next.resume <- struct{}{}
	}
	err := <-s.result
	for _, t := range s.tasks {
		close(t.resume)
	}
	return err
}

// dispatch runs the event loop on the calling goroutine, with no task
// running, until a task is ready: it fires due timers and At callbacks
// in (time, arming) order, and steps the continuation of each picked
// task that has one until it stops parking. It returns the next task,
// already marked running, or nil once the simulation is over, in which
// case it has sent the outcome to Run.
func (s *Scheduler) dispatch() *Task {
	for {
		if s.live == 0 {
			s.result <- nil
			return nil
		}
		if s.rdyHead < len(s.rdy) {
			t := s.popReady()
			t.state = stateRunning
			if t.step != nil {
				// Run the continuation where the goroutine would have
				// resumed, with no task running so it cannot block.
				if t.step() {
					continue
				}
				t.step = nil
			}
			s.running = t
			return t
		}
		if len(s.tmrs) == 0 {
			s.result <- s.deadlockError()
			return nil
		}
		if s.tmrs[0].when > s.deadline {
			s.result <- fmt.Errorf("vtime: virtual deadline %v exceeded (next event at %v)", s.deadline, s.tmrs[0].when)
			return nil
		}
		e := s.popTimer()
		if e.when > s.now {
			s.now = e.when
		}
		switch t := e.task; {
		case e.fn != nil:
			e.fn()
		case t.state != stateBlocked || t.waitGen != e.gen:
			// stale: the task was woken some other way first
		case e.isTimeout:
			if t.waitList != nil {
				t.waitList.cancelWait(t)
			}
			t.timedOut = true
			s.makeReady(t)
		default: // plain sleep wakeup
			t.timedOut = false
			s.makeReady(t)
		}
	}
}

// TaskState is one live task's entry in a DeadlockError dump: enough to
// tell which rank/thread wedged and what it was waiting for without
// re-running under a debugger.
type TaskState struct {
	ID     int
	Name   string
	State  string // "new", "ready", "running", "blocked", "done"
	Daemon bool
	// BlockedOn is the human-readable wait reason ("sem n0.cpu",
	// "queue tcp.incoming", "event bcast.done");
	// empty unless State is "blocked".
	BlockedOn string
}

// DeadlockError is the scheduler's structured deadlock report: every live
// task is blocked and no event is pending, so virtual time can never
// advance. Tests and tooling match it with errors.As and inspect Tasks
// instead of parsing the rendered string.
type DeadlockError struct {
	Now   Time
	Tasks []TaskState
	// FlightTail holds the scheduler's OnDeadlock context lines —
	// typically the trace flight recorder's last events before the
	// hang. Empty when no recorder is attached.
	FlightTail []string
}

// Error renders the classic diagnosable dump: one line per task with its
// state and wait reason.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vtime: deadlock at %v: no runnable task, no pending event\n", e.Now)
	for _, ts := range e.Tasks {
		fmt.Fprintf(&b, "  task %d %q: %s", ts.ID, ts.Name, ts.State)
		if ts.BlockedOn != "" {
			fmt.Fprintf(&b, " on %s", ts.BlockedOn)
		}
		b.WriteByte('\n')
	}
	if len(e.FlightTail) > 0 {
		fmt.Fprintf(&b, "  last %d trace events before the hang:\n", len(e.FlightTail))
		for _, line := range e.FlightTail {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// deadlockError snapshots every live task, sorted by id, into a
// DeadlockError.
func (s *Scheduler) deadlockError() *DeadlockError {
	ids := make([]int, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	e := &DeadlockError{Now: s.now}
	for _, id := range ids {
		t := s.tasks[id]
		ts := TaskState{ID: t.id, Name: t.name, State: t.state.String(), Daemon: t.daemon}
		if t.state == stateBlocked {
			ts.BlockedOn = t.waitLabel()
		}
		e.Tasks = append(e.Tasks, ts)
	}
	if s.OnDeadlock != nil {
		e.FlightTail = s.OnDeadlock()
	}
	return e
}

// popReady dequeues the next ready task in FIFO order. Amortized O(1):
// the head index advances past consumed entries, and the dead prefix is
// dropped either when the queue drains (the common case — reset and reuse
// the whole backing array) or when it outgrows the live tail.
func (s *Scheduler) popReady() *Task {
	t := s.rdy[s.rdyHead]
	s.rdy[s.rdyHead] = nil // release for GC
	s.rdyHead++
	if s.rdyHead == len(s.rdy) {
		s.rdy, s.rdyHead = s.rdy[:0], 0
	} else if s.rdyHead >= 64 && s.rdyHead > len(s.rdy)-s.rdyHead {
		n := copy(s.rdy, s.rdy[s.rdyHead:])
		for i := n; i < len(s.rdy); i++ {
			s.rdy[i] = nil
		}
		s.rdy, s.rdyHead = s.rdy[:n], 0
	}
	return t
}

func (s *Scheduler) makeReady(t *Task) {
	t.waitGen++
	t.state = stateReady
	t.waitList = nil
	s.rdy = append(s.rdy, t)
}

// cur returns the currently running task, panicking if called from outside
// task context (e.g. from an At callback, which must not block).
func (s *Scheduler) cur(op string) *Task {
	if s.running == nil {
		panic("vtime: " + op + " called outside a running task")
	}
	return s.running
}

// switchOut gives up the run token: it runs the event loop until a task
// is ready and hands the token to it. The caller resumes when it is
// picked again — at once, without touching a channel, if it is the next
// task itself.
func (s *Scheduler) switchOut(t *Task) {
	s.running = nil
	next := s.dispatch()
	if next == t {
		return
	}
	if next != nil {
		next.resume <- struct{}{}
	}
	t.park()
}

// addTimer arms e: it appends it to the heap and sifts it up.
func (s *Scheduler) addTimer(e timer) {
	e.seq = s.seq
	s.seq++
	h := append(s.tmrs, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.tmrs = h
}

// popTimer removes and returns the earliest timer.
func (s *Scheduler) popTimer() timer {
	h := s.tmrs
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = timer{} // release the task and callback for GC
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h[l].before(&h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.tmrs = h
	return top
}

// Sleep suspends the current task for d of virtual time. d <= 0 yields.
func (s *Scheduler) Sleep(d Duration) {
	t := s.cur("Sleep")
	if d <= 0 {
		s.Yield()
		return
	}
	s.doze(t, d)
	s.switchOut(t)
}

// doze marks t asleep until d from now, without switching.
func (s *Scheduler) doze(t *Task, d Duration) {
	s.addTimer(timer{when: s.now.Add(d), task: t, gen: t.waitGen})
	t.state = stateBlocked
	t.waitKind, t.waitName = "sleep", ""
}

// Yield places the current task at the back of the ready queue and runs
// the next one, without advancing time.
func (s *Scheduler) Yield() {
	t := s.cur("Yield")
	t.state = stateReady
	s.rdy = append(s.rdy, t)
	s.switchOut(t)
}

// At schedules fn to run at virtual time when (or now, if in the past).
// fn executes in scheduler context — on the goroutine of whichever task
// gave up the token, with no task running — and must not block; it may
// wake tasks (Queue.Push, Event.Fire, Sem.Release) and schedule further
// callbacks.
func (s *Scheduler) At(when Time, fn func()) {
	if when < s.now {
		when = s.now
	}
	s.addTimer(timer{when: when, fn: fn})
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// block parks the current task until woken by a wake() call or, if
// timeout >= 0, until the timeout expires; kind and name label the wait.
// A wait with a timeout must name its wait list, which the timeout
// detaches the task from if it wins. Returns true if it timed out.
// The caller must have registered the task on a wait list already.
func (s *Scheduler) block(t *Task, kind, name string, timeout Duration, wl waitList) bool {
	s.await(t, kind, name, timeout, wl)
	s.switchOut(t)
	return t.timedOut
}

// await is block without the switch: it marks t blocked and arms its
// timeout, for a caller that gives up the token itself or, from a
// continuation, not at all.
func (s *Scheduler) await(t *Task, kind, name string, timeout Duration, wl waitList) {
	t.state = stateBlocked
	t.waitKind, t.waitName = kind, name
	t.timedOut = false
	t.waitList = wl
	if timeout >= 0 {
		s.addTimer(timer{when: s.now.Add(timeout), task: t, gen: t.waitGen, isTimeout: true})
	}
}

// wake moves a blocked task to the ready queue. Safe to call from task or
// scheduler (At callback) context.
func (s *Scheduler) wake(t *Task) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("vtime: wake of task %q in state %v", t.name, t.state))
	}
	s.makeReady(t)
}
