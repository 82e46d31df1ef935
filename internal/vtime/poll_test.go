package vtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBlockingInContinuationPanics: a continuation runs inside dispatch
// with no task running, like an At callback, so a blocking call from it
// must panic instead of parking anything.
func TestBlockingInContinuationPanics(t *testing.T) {
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
		me := s.running
		for i, b := range blocking {
			me.step = func() bool {
				defer func() { got[i] = fmt.Sprint(recover()) }()
				b.call()
				return false
			}
			s.doze(me, Microsecond)
			s.switchOut(me)
			if me.step != nil {
				t.Errorf("%s: continuation left set after it finished", b.name)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocking {
		want := "vtime: " + b.name + " called outside a running task"
		if !strings.Contains(got[i], want) {
			t.Errorf("%s in a continuation: recovered %q, want %q", b.name, got[i], want)
		}
	}
}

// TestRunTearsDownPollersParkedMidMachine checks that Run returns while
// pollers are parked at each point of the poll machine (burning, queued
// for the CPU, waiting on an arrival), that no poller body runs after
// it, and that every goroutine exits.
func TestRunTearsDownPollersParkedMidMachine(t *testing.T) {
	base := runtime.NumGoroutine()
	var ranAfter atomic.Bool
	s := New()
	cpu0 := NewSem(s, "n0.cpu", 1)
	cpu1 := NewSem(s, "n1.cpu", 1)
	never := NewEvent(s, "never")
	var busy Duration
	poller := func(name string, cpu *Sem, interval Duration) *Task {
		q := NewQueue[int](s, name)
		return s.GoDaemon(name, func() {
			PollWait(q, cpu, interval, 8*Microsecond, &busy)
			ranAfter.Store(true)
		})
	}
	burning := poller("burning", cpu0, 25*Microsecond) // third burn: 91..99us
	arrival := poller("arrival", cpu0, 0)
	s.GoDaemon("hog", func() {
		cpu1.Acquire()
		never.Wait()
	})
	queued := poller("queued", cpu1, 25*Microsecond) // on n1.cpu since 25us
	var states []string
	s.Go("main", func() {
		s.Sleep(95 * Microsecond)
		for _, p := range []*Task{burning, arrival, queued} {
			states = append(states, p.waitLabel())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"sleep", "queue arrival", "sem n1.cpu"}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("pollers parked on %q at 95us, want %q", states, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, baseline %d", n, base)
	}
	if ranAfter.Load() {
		t.Fatal("a poller body ran after Run returned")
	}
}

// TestDeadlockNamesPollerQueuedForCPU: a poller whose idle burn waits on
// a CPU that is never released shows up in the deadlock report as
// blocked on that CPU's semaphore, as a thread loop calling Acquire did.
func TestDeadlockNamesPollerQueuedForCPU(t *testing.T) {
	s := New()
	cpu := NewSem(s, "n0.cpu", 1)
	never := NewEvent(s, "never")
	q := NewQueue[int](s, "tcp.incoming")
	var busy Duration
	s.Go("hog", func() {
		cpu.Acquire()
		never.Wait()
	})
	s.Go("poller", func() { PollWait(q, cpu, 25*Microsecond, 8*Microsecond, &busy) })
	err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if de.Now != Time(25*Microsecond) {
		t.Errorf("deadlock at %v, want 25us (the first tick deadline)", de.Now)
	}
	for _, ts := range de.Tasks {
		if ts.Name == "poller" {
			if ts.State != "blocked" || ts.BlockedOn != "sem n0.cpu" {
				t.Fatalf("poller is %s on %q, want blocked on %q", ts.State, ts.BlockedOn, "sem n0.cpu")
			}
			return
		}
	}
	t.Fatalf("poller missing from the deadlock report:\n%v", err)
}
