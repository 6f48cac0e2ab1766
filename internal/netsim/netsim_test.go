package netsim

import (
	"testing"
	"time"

	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sim"
)

func twoNodes(t *testing.T) (*sim.Engine, *Network, *[]string) {
	t.Helper()
	eng := sim.NewEngine()
	n := New(eng)
	var got []string
	n.AddNode(1, Link{Bandwidth: T1, Latency: 5 * time.Millisecond}, func(from ids.PeerID, payload any, size int) {
		got = append(got, payload.(string))
	})
	n.AddNode(2, Link{Bandwidth: FastEth, Latency: 10 * time.Millisecond}, func(from ids.PeerID, payload any, size int) {
		got = append(got, "2:"+payload.(string))
	})
	return eng, n, &got
}

func TestDeliveryAndTiming(t *testing.T) {
	eng, n, got := twoNodes(t)
	// 1500 bytes over min(1.5Mbps, 100Mbps) = 8ms serialization + 15ms
	// latency = 23ms.
	n.Send(2, 1, "hello", 1500)
	want := transferTime(n.nodes[2], n.nodes[1], 1500)
	if want != 23*time.Millisecond {
		t.Fatalf("transfer time %v, want 23ms", want)
	}
	eng.Run(sim.Time(want) - 1)
	if len(*got) != 0 {
		t.Fatal("delivered early")
	}
	eng.Run(sim.Time(want))
	if len(*got) != 1 || (*got)[0] != "hello" {
		t.Fatalf("delivery failed: %v", *got)
	}
	if n.Delivered != 1 || n.Sent != 1 || n.BytesDelivered != 1500 {
		t.Errorf("stats wrong: %+v", *n)
	}
}

func TestUnknownEndpointsDrop(t *testing.T) {
	eng, n, got := twoNodes(t)
	n.Send(1, 99, "x", 10)
	n.Send(99, 1, "y", 10)
	eng.Run(sim.Time(time.Second))
	if len(*got) != 0 {
		t.Error("messages to/from unknown nodes delivered")
	}
}

func TestPipeStoppageAtSend(t *testing.T) {
	eng, n, got := twoNodes(t)
	n.SetStopped(1, true)
	n.Send(2, 1, "blocked", 10)
	n.Send(1, 2, "blocked-out", 10)
	eng.Run(sim.Time(time.Second))
	if len(*got) != 0 {
		t.Error("stopped node communicated")
	}
	if n.DroppedStoppage != 2 {
		t.Errorf("dropped count %d", n.DroppedStoppage)
	}
	// Restoration lets traffic flow again.
	n.SetStopped(1, false)
	if n.Stopped(1) {
		t.Error("Stopped state wrong")
	}
	n.Send(2, 1, "ok", 10)
	eng.Run(sim.Time(2 * time.Second))
	if len(*got) != 1 {
		t.Error("restored node did not receive")
	}
}

func TestPipeStoppageInFlight(t *testing.T) {
	eng, n, got := twoNodes(t)
	n.Send(2, 1, "in-flight", 1500)
	// The attack starts while the message is in flight.
	eng.At(sim.Time(time.Millisecond), func() { n.SetStopped(1, true) })
	eng.Run(sim.Time(time.Second))
	if len(*got) != 0 {
		t.Error("in-flight message survived pipe stoppage")
	}
}

// TestReleaseOncePerPayload: every payload handed to Send reaches Release
// exactly once, on every path, and a delivered one only after its handler
// has returned.
func TestReleaseOncePerPayload(t *testing.T) {
	eng, n, got := twoNodes(t)
	released := map[string]int{}
	n.Release = func(payload any) {
		s := payload.(string)
		released[s]++
		if s == "delivered" && len(*got) != 1 {
			t.Error("released before its handler ran")
		}
	}
	n.Send(2, 1, "delivered", 10)
	n.Send(1, 99, "unknown-endpoint", 10)
	eng.Run(sim.Time(time.Second))
	n.Send(2, 1, "stopped-in-flight", 1500)
	eng.At(eng.Now()+sim.Time(time.Millisecond), func() { n.SetStopped(1, true) })
	eng.Run(eng.Now() + sim.Time(time.Second))
	n.Send(2, 1, "stopped-at-send", 10)
	want := map[string]int{"delivered": 1, "unknown-endpoint": 1, "stopped-in-flight": 1, "stopped-at-send": 1}
	if len(released) != len(want) {
		t.Fatalf("released %v, want %v", released, want)
	}
	for k, v := range want {
		if released[k] != v {
			t.Errorf("%q released %d times, want %d", k, released[k], v)
		}
	}
}

func TestRandomLinkDistribution(t *testing.T) {
	rnd := prng.New(5)
	counts := map[Bps]int{}
	for i := 0; i < 3000; i++ {
		l := RandomLink(rnd)
		counts[l.Bandwidth]++
		if l.Latency < time.Millisecond || l.Latency > 30*time.Millisecond {
			t.Fatalf("latency %v out of [1ms,30ms]", l.Latency)
		}
	}
	for _, bw := range []Bps{T1, Ethernet, FastEth} {
		if c := counts[bw]; c < 800 || c > 1200 {
			t.Errorf("bandwidth %v drawn %d/3000 times", bw, c)
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	n.AddNode(1, Link{Bandwidth: T1, Latency: time.Millisecond}, func(ids.PeerID, any, int) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	n.AddNode(1, Link{Bandwidth: T1, Latency: time.Millisecond}, func(ids.PeerID, any, int) {})
}
