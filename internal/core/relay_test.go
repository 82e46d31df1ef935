package core

// Tests of the relay hardening: a gateway with no onward route must not
// crash the simulation — rendez-vous senders get a proper error (nack),
// eager messages are counted and dropped.

import (
	"fmt"
	"strings"
	"testing"

	"mpichmad/internal/adi"
	"mpichmad/internal/madeleine"
	"mpichmad/internal/marcel"
	"mpichmad/internal/netsim"
	"mpichmad/internal/vtime"
)

// brokenGatewayRig wires rank0 -> rank1(gateway) -> rank2 over two
// networks but leaves the gateway without a route to rank2: the
// misconfigured multi-hop topology of the satellite issue.
func brokenGatewayRig(t *testing.T) (*vtime.Scheduler, []*marcel.Proc, []*Device) {
	t.Helper()
	s := vtime.New()
	s.SetDeadline(vtime.Time(200 * vtime.Second))
	sci := netsim.NewNetwork(s, "SCI", netsim.SCISISCI())
	myri := netsim.NewNetwork(s, "Myrinet", netsim.MyrinetBIP())

	procs := make([]*marcel.Proc, 3)
	devs := make([]*Device, 3)
	for i := 0; i < 3; i++ {
		procs[i] = marcel.NewProc(s, fmt.Sprintf("n%d", i))
		devs[i] = New(procs[i], adi.NewEngine(procs[i], i), i)
	}
	inst0 := madeleine.New(procs[0])
	ch0, err := inst0.NewChannel("sci", sci)
	if err != nil {
		t.Fatal(err)
	}
	inst1 := madeleine.New(procs[1])
	ch1s, err := inst1.NewChannel("sci", sci)
	if err != nil {
		t.Fatal(err)
	}
	ch1m, err := inst1.NewChannel("myri", myri)
	if err != nil {
		t.Fatal(err)
	}
	inst2 := madeleine.New(procs[2])
	ch2, err := inst2.NewChannel("myri", myri)
	if err != nil {
		t.Fatal(err)
	}
	devs[0].AddChannel(ch0)
	devs[1].AddChannel(ch1s)
	devs[1].AddChannel(ch1m)
	devs[2].AddChannel(ch2)

	installRoutes(devs[0], map[int][]Route{
		1: {{Channel: ch0, NextNode: "n1"}},
		2: {{Channel: ch0, NextNode: "n1", Hops: 2}}, // via gateway
	})
	installRoutes(devs[1], map[int][]Route{
		0: {{Channel: ch1s, NextNode: "n0"}},
		// Deliberately missing: the onward route to rank 2.
	})
	installRoutes(devs[2], map[int][]Route{
		1: {{Channel: ch2, NextNode: "n1"}},
	})
	for i := 0; i < 3; i++ {
		devs[i].Start()
	}
	return s, procs, devs
}

// TestRelayNoRouteNacksRendezvous: a rendez-vous request relayed into a
// routing hole surfaces as an error on the sender's request instead of a
// panic that kills every rank.
func TestRelayNoRouteNacksRendezvous(t *testing.T) {
	s, procs, devs := brokenGatewayRig(t)
	big := pattern(100000) // above every switch point: rendez-vous
	var sendErr error
	procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 1, Context: 0, Len: len(big)},
			Dst: 2, Data: big, Done: vtime.NewEvent(s, "send"),
		}
		devs[0].Send(sr)
		sr.Done.Wait()
		sendErr = sr.Err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sendErr == nil {
		t.Fatal("rendez-vous into a routing hole must fail the sender")
	}
	if !strings.Contains(sendErr.Error(), "no route to rank 2") {
		t.Fatalf("unhelpful error: %v", sendErr)
	}
	if devs[1].NRelayDrops != 1 {
		t.Fatalf("gateway drops = %d, want 1", devs[1].NRelayDrops)
	}
	if sends, _ := devs[0].Pending(); sends != 0 {
		t.Fatalf("sender still holds %d pending rendez-vous", sends)
	}
}

// TestRelayNoRouteDropsEager: an eager message into the same hole is
// counted and dropped; the sender (already locally complete, per MPI
// eager semantics) and the rest of the simulation keep running.
func TestRelayNoRouteDropsEager(t *testing.T) {
	s, procs, devs := brokenGatewayRig(t)
	small := pattern(64)
	procs[0].Spawn("send", func() {
		sr := &adi.SendReq{
			Env: adi.Envelope{Src: 0, Tag: 1, Context: 0, Len: len(small)},
			Dst: 2, Data: small, Done: vtime.NewEvent(s, "send"),
		}
		devs[0].Send(sr)
		sr.Done.Wait()
		if sr.Err != nil {
			t.Errorf("eager send should complete locally: %v", sr.Err)
		}
	})
	// The eager sender completes before the packet even arrives at the
	// gateway; keep one application task alive so the gateway's polling
	// daemon is still running when the relay attempt happens.
	procs[1].Spawn("linger", func() { procs[1].Sleep(50 * vtime.Millisecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if devs[1].NRelayDrops != 1 {
		t.Fatalf("gateway drops = %d, want 1", devs[1].NRelayDrops)
	}
}
