package reputation

import (
	"sync"
	"sync/atomic"
	"testing"

	"lockss/internal/ids"
	"lockss/internal/prng"
)

// TestGateNeverShedsWhatConsiderWouldPass drives a list through random
// sequences of everything that can change it — grade moves, introductions,
// considered invitations, the clock running through refractory periods and
// decay intervals — and after every step asks the gate about random
// identities: whenever it sheds one, Consider at that instant on the same
// list must answer RejectRefractory. The converse need not hold; the gate may
// pass what Consider then rejects. A second goroutine reads the gate
// throughout, for the race detector.
func TestGateNeverShedsWhatConsiderWouldPass(t *testing.T) {
	const peers = 24 // few enough that every identity sees every state
	for seed := uint64(1); seed <= 40; seed++ {
		rnd := prng.New(seed)
		p := DefaultParams(day, 3*day)
		p.MaxIntroductions = 4
		p.IntroductionsEnabled = seed%5 != 0
		l := NewList(p)
		now := at(1)
		if seed%2 == 0 { // gates opened on used lists must start in step too
			l.Raise(now, 3)
			l.AddIntroduction(now, 3, 4)
		}
		g := l.OpenGate(now)

		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := ids.PeerID(1); !stop.Load(); id = id%peers + 1 {
				g.Sheds(at(2), id)
			}
		}()

		pick := func() ids.PeerID { return ids.PeerID(1 + rnd.Intn(peers)) }
		shed := 0
		for step := 0; step < 3000; step++ {
			switch rnd.Intn(8) {
			case 0:
				l.Raise(now, pick())
			case 1:
				l.Lower(now, pick())
			case 2:
				l.Penalize(now, pick())
			case 3:
				l.AddIntroduction(now, pick(), pick())
			case 4:
				l.ForgetIntroducer(pick())
			case 5:
				l.Consider(now, pick(), rnd)
			case 6:
				now += Time(rnd.Float64() * float64(day) / 4)
			case 7:
				now += Time(rnd.Float64() * float64(day) * 2)
			}
			for k := 0; k < 4; k++ {
				id := pick()
				if !g.Sheds(now, id) {
					continue
				}
				shed++
				if dec := l.Consider(now, id, rnd); dec != RejectRefractory {
					t.Fatalf("seed %d step %d: gate sheds %v at %d, Consider says %v", seed, step, id, now, dec)
				}
			}
		}
		stop.Store(true)
		wg.Wait()
		if shed == 0 {
			t.Errorf("seed %d: the gate never shed; the property was not exercised", seed)
		}
	}
}

// TestGateShedsTheFlood is the converse where it matters: with the slot
// closed and nothing else changing, the gate sheds every identity that is
// neither even/credit nor introduced, and passes every one that is.
func TestGateShedsTheFlood(t *testing.T) {
	l := NewList(params())
	g := l.OpenGate(0)
	if g.Sheds(0, 99) {
		t.Fatal("open slot: the gate sheds")
	}
	l.Raise(0, 1)              // even
	l.Penalize(0, 2)           // debt
	l.AddIntroduction(0, 1, 3) // introduced
	rnd := prng.New(1)
	for l.Consider(0, 100, rnd) != AdmitUnknown {
	}
	for id, want := range map[ids.PeerID]bool{1: false, 2: true, 3: false, 99: true} {
		if got := g.Sheds(at(0.5), id); got != want {
			t.Errorf("slot closed: Sheds(%v) = %v, want %v", id, got, want)
		}
	}
	if g.Sheds(at(1), 99) {
		t.Error("the gate still sheds after the refractory period lapsed")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Sheds(at(0.5), 99) }); allocs != 0 {
		t.Errorf("Sheds allocates %v times per call", allocs)
	}
}
