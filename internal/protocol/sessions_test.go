package protocol

import (
	"testing"

	"lockss/internal/ids"
)

// sessionOp encodes one FuzzVoterSessions step: kind 0 opens poller's
// session for pollID, 1 looks it up, 2 closes it. Pollers are 2..4 and poll
// IDs 0..2.
func sessionOp(kind, poller, pollID int) byte {
	return byte(kind + 3*(poller-2) + 9*pollID)
}

// FuzzVoterSessions drives the voter's session index — one chain of live
// sessions per poller, found by poller and then poll ID — through opens,
// lookups and closes over three pollers × three poll IDs, against a plain
// map model. After every step each lookup must return the model's session,
// each poller's chain must hold exactly its live sessions, every recycled
// record must link to nothing, and AUInfo must count sessions, not pollers.
func FuzzVoterSessions(f *testing.F) {
	open, lookup, closeOp := 0, 1, 2
	// Two live sessions from one poller.
	f.Add([]byte{sessionOp(open, 2, 0), sessionOp(open, 2, 1), sessionOp(lookup, 2, 0), sessionOp(lookup, 2, 1)})
	// A chain of three (newest first): close its head, its middle, its tail.
	chain := []byte{sessionOp(open, 2, 0), sessionOp(open, 2, 1), sessionOp(open, 2, 2), sessionOp(open, 3, 0)}
	for _, id := range []int{2, 1, 0} {
		f.Add(append(append([]byte(nil), chain...), sessionOp(closeOp, 2, id), sessionOp(lookup, 2, id)))
	}
	// Re-opening after a close, alone and inside a chain.
	f.Add([]byte{sessionOp(open, 3, 1), sessionOp(closeOp, 3, 1), sessionOp(open, 3, 1), sessionOp(lookup, 3, 1)})
	f.Add([]byte{sessionOp(open, 4, 0), sessionOp(open, 4, 1), sessionOp(closeOp, 4, 0), sessionOp(open, 4, 0), sessionOp(closeOp, 4, 1), sessionOp(lookup, 4, 0)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		env := newFakeEnv(1)
		p, _ := newTestPeer(t, env, 10, testConfig(), []ids.PeerID{2, 3, 4})
		au := p.AUs()[0]
		st := p.au(au)
		type key struct {
			poller ids.PeerID
			pollID uint64
		}
		model := make(map[key]*voterSession)
		for step, b := range ops {
			b %= 27
			k := key{ids.PeerID(2 + b/3%3), uint64(b / 9)}
			switch b % 3 {
			case 0:
				if st.session(k.poller, k.pollID) == nil {
					model[k] = p.openSession(st, k.poller, k.pollID)
				}
			case 1:
				if got := st.session(k.poller, k.pollID); got != model[k] {
					t.Fatalf("step %d: session(%v, %d) = %p, want %p", step, k.poller, k.pollID, got, model[k])
				}
			case 2:
				if s := model[k]; s != nil {
					p.closeSession(st, s)
					delete(model, k)
				}
			}

			for poller := ids.PeerID(2); poller <= 4; poller++ {
				for id := uint64(0); id < 3; id++ {
					if got, want := st.session(poller, id), model[key{poller, id}]; got != want {
						t.Fatalf("step %d: session(%v, %d) = %p, want %p", step, poller, id, got, want)
					}
				}
			}
			linked := 0
			for poller, head := range st.sessions {
				if head == nil {
					t.Fatalf("step %d: poller %v holds an empty chain", step, poller)
				}
				for s := head; s != nil; s = s.next {
					if linked++; linked > len(model) {
						t.Fatalf("step %d: chains hold more than the %d live sessions", step, len(model))
					}
					if s.poller != poller || s.state == vsClosed || model[key{poller, s.pollID}] != s {
						t.Fatalf("step %d: poller %v's chain holds %+v, not a live session of its own", step, poller, *s)
					}
				}
			}
			if linked != len(model) {
				t.Fatalf("step %d: chains hold %d sessions, want %d", step, linked, len(model))
			}
			for _, s := range p.freeSessions {
				if s.next != nil {
					t.Fatalf("step %d: a recycled session still links to poll %d", step, s.next.pollID)
				}
			}
			if info, _ := auInfo(p, au); info.VoterSessions != len(model) {
				t.Fatalf("step %d: AUInfo.VoterSessions = %d, want %d", step, info.VoterSessions, len(model))
			}
		}
	})
}
