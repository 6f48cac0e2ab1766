package world_test

import (
	"testing"

	"lockss/internal/adversary"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// scribble overwrites what a released payload says, so a reader that kept it
// past its release reads garbage instead of a plausible stale message.
func scribble(payload any) {
	switch v := payload.(type) {
	case *protocol.Msg:
		v.Type = 0xff
		v.AU, v.PollID, v.Poller, v.Voter = 0xbad, 0xbad, 0xbad, 0xbad
		v.Accept = !v.Accept
		for i := range v.Nominations {
			v.Nominations[i] = ids.PeerID(0xbad0 + i)
		}
	case *world.BurstPayload:
		v.Template.Type = 0xff
		v.Template.AU, v.Template.PollID = 0xbad, 0xbad
		v.First, v.Count, v.Pool = 0xbad, 1, nil
	}
}

// TestReleasedPayloadsAreNotRead pins the payload ownership contract between
// netsim, world and protocol: once the network hands a message or burst back
// through Net.Release, nothing reads it again. Runs whose released payloads
// are scribbled over must be bit-identical to runs whose are not, under an
// attack that exercises every reply path (brute force, NONE defection), one
// that floods bursts, and one that drops traffic at send and in flight.
func TestReleasedPayloadsAreNotRead(t *testing.T) {
	pulse := adversary.Pulse{Coverage: 0.5, Duration: 30 * sim.Day, Recuperation: 20 * sim.Day}
	cases := []struct {
		name string
		adv  func() adversary.Adversary
	}{
		{"brute-force-none", func() adversary.Adversary { return &adversary.BruteForce{Defection: adversary.DefectNone} }},
		{"admission-flood", func() adversary.Adversary { return &adversary.AdmissionFlood{Pulse: pulse} }},
		{"pipe-stoppage", func() adversary.Adversary { return &adversary.PipeStoppage{Pulse: pulse} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(poison bool) (fp any, msgs, bursts int) {
				cfg := world.Default()
				cfg.Peers = 20
				cfg.AUs = 2
				cfg.AUSize = 16 << 20
				cfg.Duration = sim.Year / 2
				cfg.DamageDiskYears = 1
				w, err := world.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				c.adv().Install(w)
				release := w.Net.Release
				w.Net.Release = func(payload any) {
					switch payload.(type) {
					case *protocol.Msg:
						msgs++
					case *world.BurstPayload:
						bursts++
					}
					if poison {
						scribble(payload)
					}
					release(payload)
				}
				w.Run()
				return world.Fingerprint(w), msgs, bursts
			}
			clean, msgs, bursts := run(false)
			poisoned, _, _ := run(true)
			if msgs == 0 {
				t.Fatal("no message was released: the world did not install its Release hook")
			}
			if c.name == "admission-flood" && bursts == 0 {
				t.Fatal("no burst was released")
			}
			if poisoned != clean {
				t.Errorf("scribbling over released payloads changed the run: something read a payload after its release\npoisoned %+v\n   clean %+v", poisoned, clean)
			}
		})
	}
}
