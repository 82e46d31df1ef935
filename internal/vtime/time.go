// Package vtime implements a deterministic discrete-event virtual-time
// kernel: cooperative tasks, timers, and synchronization primitives whose
// blocking behaviour advances a simulated clock instead of the wall clock.
//
// The kernel is the substrate for the whole MPICH/Madeleine reproduction:
// every simulated process, Marcel thread, NIC and polling loop is a vtime
// task. Exactly one task runs at any instant, the one holding the run
// token, so simulations are fully deterministic: the same program
// produces the same event order and the same virtual timestamps on every
// run, on any machine.
//
// There is no scheduler goroutine. A task that blocks, sleeps or yields
// runs the event loop itself: it pops the next ready task, firing due
// timers and At callbacks (with no task running) until one is ready, and
// hands the token over with one send on that task's channel. If the next
// task is the caller, no channel is touched at all. Run only starts the
// first dispatch and waits for the outcome. Waits allocate nothing: wait
// reasons are stored as kind and name and rendered only for a deadlock
// report, and timers are values in a hand-written heap. (PollWait
// allocates its state once per call; its idle ticks allocate nothing.)
//
// A blocked task may leave a continuation instead of waiting to be
// resumed: when the event loop picks the task, it runs the continuation
// right there, with no task running, so the continuation cannot block.
// If the continuation parks the task again, the loop goes on; otherwise
// the task's goroutine gets the token. PollWait uses this to step the
// idle ticks of a polling thread (timed-out wait, CPU burn) without
// waking its goroutine, arming the same timers and making the same
// wait-list and ready-queue entries, in the same order, as a loop on
// that goroutine would.
package vtime

import "fmt"

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient virtual-time duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Microseconds converts a floating-point microsecond count to a Duration.
// It is the most common unit in the paper's calibration tables.
func Microseconds(us float64) Duration {
	return Duration(us * float64(Microsecond))
}

// Micros reports d in microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports t in microseconds since simulation start.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Add advances a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }
