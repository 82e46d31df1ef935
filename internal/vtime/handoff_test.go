package vtime

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitsDoNotAllocate gates the kernel's hot paths: once warm, a
// sleep, a semaphore hand-off, a queue push/pop, a timed-out PopTimeout
// and an idle PollWait tick allocate nothing. A background daemon keeps a second task
// in play so the token really travels between goroutines.
func TestWaitsDoNotAllocate(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *Scheduler) func()
	}{
		{"Sleep", func(s *Scheduler) func() {
			return func() { s.Sleep(Microsecond) }
		}},
		{"SemHandoff", func(s *Scheduler) func() {
			sem := NewSem(s, "cpu", 0)
			s.GoDaemon("peer", func() {
				for {
					sem.Acquire()
					sem.Release()
				}
			})
			return func() {
				sem.Release() // hands the permit to the parked peer
				sem.Acquire() // parks until the peer hands it back
			}
		}},
		{"QueuePushPop", func(s *Scheduler) func() {
			q := NewQueue[int](s, "q")
			s.GoDaemon("consumer", func() {
				for {
					q.Pop()
				}
			})
			return func() {
				q.Push(1)
				s.Yield()
			}
		}},
		{"PopTimeoutExpires", func(s *Scheduler) func() {
			q := NewQueue[int](s, "q")
			return func() {
				if _, ok := q.PopTimeout(Microsecond); ok {
					panic("PopTimeout on an empty queue returned an item")
				}
			}
		}},
		{"IdlePollTick", func(s *Scheduler) func() {
			q := NewQueue[int](s, "rx")
			cpu := NewSem(s, "n0.cpu", 1)
			var busy Duration
			s.GoDaemon("poller", func() { PollWait(q, cpu, 25*Microsecond, 8*Microsecond, &busy) })
			s.GoDaemon("compute", func() { // makes some ticks queue for the CPU
				for {
					cpu.Acquire()
					s.Sleep(5 * Microsecond)
					cpu.Release()
					s.Sleep(7 * Microsecond)
				}
			})
			return func() { s.Sleep(33 * Microsecond) } // one idle tick
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			s.GoDaemon("ticker", func() {
				for {
					s.Sleep(3 * Microsecond)
				}
			})
			op := c.setup(s)
			var allocs float64
			s.Go("main", func() {
				op() // warm the heap, ready queue and wait lists
				allocs = testing.AllocsPerRun(200, op)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("%s: %v allocs per op, want 0", c.name, allocs)
			}
		})
	}
}

// TestRunTearsDownParkedAndUnstartedTasks checks that Run returns while
// daemons are parked and a spawned task never got the token, that none
// of their bodies runs afterwards, and that every task goroutine exits.
func TestRunTearsDownParkedAndUnstartedTasks(t *testing.T) {
	base := runtime.NumGoroutine()
	var ranAfter atomic.Bool
	s := New()
	never := NewEvent(s, "never")
	q := NewQueue[int](s, "rx")
	s.GoDaemon("waiter", func() {
		never.Wait()
		ranAfter.Store(true)
	})
	s.GoDaemon("poller", func() {
		q.PopTimeout(Second)
		ranAfter.Store(true)
	})
	s.GoDaemon("sleeper", func() {
		for {
			s.Sleep(Microsecond)
			if s.Now() > Time(Millisecond) {
				ranAfter.Store(true)
			}
		}
	})
	s.Go("main", func() {
		s.Sleep(10 * Microsecond)
		s.GoDaemon("unstarted", func() { ranAfter.Store(true) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, baseline %d", n, base)
	}
	if ranAfter.Load() {
		t.Fatal("a task body ran after Run returned")
	}
}

// TestBlockingInAtCallbackPanics: At callbacks run on whichever task's
// goroutine gave up the token, but with no task running, so a blocking
// call from one must still panic instead of parking that task.
func TestBlockingInAtCallbackPanics(t *testing.T) {
	s := New()
	sem := NewSem(s, "cpu", 0)
	ev := NewEvent(s, "ev")
	q := NewQueue[int](s, "q")
	blocking := []struct {
		name string
		call func()
	}{
		{"Sleep", func() { s.Sleep(Microsecond) }},
		{"Yield", func() { s.Yield() }},
		{"Sem.Acquire", func() { sem.Acquire() }},
		{"Event.Wait", func() { ev.Wait() }},
		{"Queue.Pop", func() { q.Pop() }},
		{"PollWait", func() { PollWait(q, sem, Microsecond, Microsecond, new(Duration)) }},
	}
	got := make([]string, len(blocking))
	s.Go("main", func() {
		for i, b := range blocking {
			s.After(Microsecond, func() {
				defer func() { got[i] = fmt.Sprint(recover()) }()
				b.call()
			})
		}
		s.Sleep(10 * Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocking {
		want := "vtime: " + b.name + " called outside a running task"
		if !strings.Contains(got[i], want) {
			t.Errorf("%s in an At callback: recovered %q, want %q", b.name, got[i], want)
		}
	}
}
