package main

import (
	"testing"

	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

func TestSumSpansCanned(t *testing.T) {
	us := vtime.Microsecond
	events := []trace.Event{
		{Name: "eager.send", Dur: 3 * us},
		{Name: "eager.send", Dur: 4 * us},
		{Name: "eager.recv"}, // instant
		{Name: "rndv.req"},   // instant
		{Name: "rndv.body", Dur: 100 * us},
		{Name: "rndv.seg", Dur: 20 * us},
		{Name: "rndv.seg", Dur: 30 * us},
		{Name: "relay.hop", Dur: 50 * us},
		{Name: "relay.credit.wait", Dur: 7 * us},
		{Name: "relay.depth", Counter: true, Args: trace.Args{Val: 3}},
		{Name: "sched.submit"},
		{Name: "sched.round", Dur: 11 * us},
		{Name: "sched.round", Dur: 0}, // a zero-length round still counts
		{Name: "sched.round", Dur: 13 * us},
		{Name: "sched.allreduce", Dur: 40 * us},
		{Name: "sched.bcast", Dur: 2 * us},
		{Name: "trunk.wait"},
		{Name: "trunk.occ", Counter: true, Args: trace.Args{Val: 9}},
	}
	got := sumSpans(events)
	want := spanSums{
		EagerSend: 7 * us, RndvBody: 150 * us, RelayHop: 50 * us, CreditWait: 7 * us,
		SchedRound: 24 * us, Rounds: 3, Coll: 42 * us,
	}
	if got != want {
		t.Fatalf("sumSpans = %+v, want %+v", got, want)
	}
	if (sumSpans(nil) != spanSums{}) {
		t.Fatal("empty event list gave non-zero sums")
	}
}
