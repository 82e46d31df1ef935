package vtime

import "testing"

// Wall-clock microbenchmarks of the DES kernel: these bound the simulator
// overhead per event, which determines how large a virtual cluster the
// harness can sweep.

func BenchmarkSleepWake(b *testing.B) {
	s := New()
	s.Go("main", func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	s := New()
	q := NewQueue[int](s, "q")
	s.Go("producer", func() {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			s.Yield()
		}
	})
	s.Go("consumer", func() {
		for i := 0; i < b.N; i++ {
			q.Pop()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSemHandoff(b *testing.B) {
	s := New()
	sem := NewSem(s, "cpu", 1)
	for w := 0; w < 4; w++ {
		s.Go("worker", func() {
			for i := 0; i < b.N/4; i++ {
				sem.Acquire()
				s.Sleep(Nanosecond)
				sem.Release()
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIdlePollTick measures one idle tick of a polling thread (a
// 25us tick, then 8us of CPU) while another thread wakes once per tick.
// The dispatcher steps the tick on that thread's goroutine; a poller
// running its own loop would cost two goroutine hand-offs per tick.
func BenchmarkIdlePollTick(b *testing.B) {
	s := New()
	q := NewQueue[int](s, "rx")
	cpu := NewSem(s, "n0.cpu", 1)
	var busy Duration
	s.GoDaemon("poller", func() { PollWait(q, cpu, 25*Microsecond, 8*Microsecond, &busy) })
	s.Go("main", func() { // another thread, waking once per tick
		for i := 0; i < b.N; i++ {
			s.Sleep(33 * Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReadyQueueThroughput stresses the scheduler's ready-queue ring
// with a deep queue: hundreds of tasks yielding in round-robin, so every
// scheduling decision pops from a long FIFO. With the old copy-down pop
// this was O(depth) per switch; the head-index ring makes it O(1), which
// is what keeps 1000-rank simulations event-bound instead of queue-bound.
func BenchmarkReadyQueueThroughput(b *testing.B) {
	const tasks = 512
	s := New()
	rounds := b.N/tasks + 1
	for w := 0; w < tasks; w++ {
		s.Go("spinner", func() {
			for i := 0; i < rounds; i++ {
				s.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSpawnJoin(b *testing.B) {
	s := New()
	s.Go("main", func() {
		for i := 0; i < b.N; i++ {
			ev := NewEvent(s, "done")
			s.Go("child", func() { ev.Fire() })
			ev.Wait()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
