package main

import (
	"strings"

	"mpichmad/internal/trace"
	"mpichmad/internal/vtime"
)

// spanSums are the virtual-time span totals of one traced pass, summed
// over every rank's track: the per-layer busy time the trace attributes
// to the ch_mad transport and to the collective schedules.
type spanSums struct {
	EagerSend  vtime.Duration // eager.send: eager packet injection
	RndvBody   vtime.Duration // rndv.body, rndv.seg: rendez-vous bodies and stripes
	RelayHop   vtime.Duration // relay.hop: gateway store-and-forward, parked time included
	CreditWait vtime.Duration // relay.credit.wait: relay credit admission waits
	SchedRound vtime.Duration // sched.round: collective schedule rounds
	Rounds     int            // number of sched.round spans
	Coll       vtime.Duration // sched.<op>: whole collectives
}

// sumSpans aggregates a trace event list. Counter samples and instants
// (sched.submit, rndv.req, ...) carry no duration and are skipped.
func sumSpans(events []trace.Event) spanSums {
	var s spanSums
	for _, ev := range events {
		if ev.Counter {
			continue
		}
		switch name := ev.Name; {
		case name == "eager.send":
			s.EagerSend += ev.Dur
		case name == "rndv.body" || name == "rndv.seg":
			s.RndvBody += ev.Dur
		case name == "relay.hop":
			s.RelayHop += ev.Dur
		case name == "relay.credit.wait":
			s.CreditWait += ev.Dur
		case name == "sched.round":
			s.SchedRound += ev.Dur
			s.Rounds++
		case name == "sched.submit":
		case strings.HasPrefix(name, "sched."):
			s.Coll += ev.Dur
		}
	}
	return s
}
