package protocol

import (
	"testing"
	"testing/quick"

	"lockss/internal/content"
	"lockss/internal/prng"
)

func spec4() content.AUSpec {
	return content.AUSpec{ID: 1, Name: "t", Size: 4096, BlockSize: 1024}
}

func TestVoteDataOfChoosesRepresentation(t *testing.T) {
	simR := content.NewSimReplica(spec4(), 1)
	if _, ok := VoteDataOf(simR, []byte("n")).(SimVote); !ok {
		t.Error("SimReplica should produce SimVote")
	}
	realR := content.NewRealReplica(spec4(), 1)
	if _, ok := VoteDataOf(realR, []byte("n")).(HashVote); !ok {
		t.Error("RealReplica should produce HashVote")
	}
}

func TestSimVoteFirstDisagreement(t *testing.T) {
	mk := func(blocks int, dam ...content.DamageEntry) SimVote {
		return SimVote{NumBlocks: blocks, Dam: dam}
	}
	cases := []struct {
		a, b SimVote
		want int
	}{
		{mk(4), mk(4), -1},
		{mk(4, content.DamageEntry{Block: 2, Mark: 5}), mk(4), 2},
		{mk(4), mk(4, content.DamageEntry{Block: 0, Mark: 5}), 0},
		{mk(4, content.DamageEntry{Block: 1, Mark: 5}), mk(4, content.DamageEntry{Block: 1, Mark: 5}), -1},
		{mk(4, content.DamageEntry{Block: 1, Mark: 5}), mk(4, content.DamageEntry{Block: 1, Mark: 6}), 1},
		{mk(4, content.DamageEntry{Block: 1, Mark: 5}), mk(4, content.DamageEntry{Block: 3, Mark: 5}), 1},
		{mk(4, content.DamageEntry{Block: 3, Mark: 5}), mk(4, content.DamageEntry{Block: 1, Mark: 5}), 1},
		{mk(4), mk(5), 4}, // length mismatch disagrees at the boundary
	}
	for i, c := range cases {
		if got := c.a.FirstDisagreement(c.b); got != c.want {
			t.Errorf("case %d: FirstDisagreement = %d, want %d", i, got, c.want)
		}
	}
}

// hashDisagreement is the reference rehashVotes is held to: the first block
// at which vote's running hashes differ from ref's, or -1 if they agree at
// every boundary. A vote that is not a HashVote disagrees at 0.
func hashDisagreement(vote VoteData, ref HashVote) int {
	v, ok := vote.(HashVote)
	if !ok {
		return 0 // incomparable representations disagree immediately
	}
	n := min(len(v.Hashes), len(ref.Hashes))
	for i := 0; i < n; i++ {
		if v.Hashes[i] != ref.Hashes[i] {
			return i
		}
	}
	if len(v.Hashes) != len(ref.Hashes) {
		return n
	}
	return -1
}

func TestHashVoteFirstDisagreement(t *testing.T) {
	h := func(vals ...byte) HashVote {
		hv := HashVote{Hashes: make([]content.Hash, len(vals))}
		for i, v := range vals {
			hv.Hashes[i][0] = v
		}
		return hv
	}
	if d := hashDisagreement(h(1, 2, 3), h(1, 2, 3)); d != -1 {
		t.Errorf("equal votes disagree at %d", d)
	}
	if d := hashDisagreement(h(1, 2, 3), h(1, 9, 3)); d != 1 {
		t.Errorf("hashDisagreement = %d, want 1", d)
	}
	if d := hashDisagreement(h(1, 2), h(1, 2, 3)); d != 2 {
		t.Errorf("length mismatch = %d, want 2", d)
	}
}

// TestIncomparableRepresentationsDisagree: on either evaluation path, a vote
// in the representation the poller's replica does not use disagrees at
// block 0.
func TestIncomparableRepresentationsDisagree(t *testing.T) {
	spec := spec4()
	hashed := []solicitation{{state: solGotVote, dis: -1}}
	rehashVotes(content.NewRealReplica(spec, 1), hashed, []ballot{{vote: SimVote{NumBlocks: spec.Blocks()}}}, 0)
	sim := &pollState{
		sols:    []solicitation{{state: solGotVote, dis: -1}},
		ballots: []ballot{{vote: HashVote{Hashes: make([]content.Hash, spec.Blocks())}}},
	}
	(&Peer{}).recomputeDisagreements(&auState{replica: content.NewSimReplica(spec, 1)}, sim, 0)
	if hashed[0].dis != 0 || sim.sols[0].dis != 0 {
		t.Errorf("mixed representations disagree at %d and %d, want 0", hashed[0].dis, sim.sols[0].dis)
	}
}

// TestSimHashEquivalence is the load-bearing property: for any damage
// pattern, the symbolic vote comparison finds the first point of
// disagreement that the real poller's rehashVotes finds.
func TestSimHashEquivalence(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rnd := prng.New(seed)
		spec := content.AUSpec{ID: 2, Name: "p", Size: 8 * 512, BlockSize: 512}
		simA, simB := content.NewSimReplica(spec, 1), content.NewSimReplica(spec, 2)
		realA, realB := content.NewRealReplica(spec, 1), content.NewRealReplica(spec, 2)
		for i := 0; i < 4; i++ {
			if rnd.Bool(0.6) {
				b := rnd.Intn(spec.Blocks())
				simA.Damage(b)
				realA.Damage(b)
			}
			if rnd.Bool(0.6) {
				b := rnd.Intn(spec.Blocks())
				simB.Damage(b)
				realB.Damage(b)
			}
		}
		var nonce Nonce
		copy(nonce[:], "nonce")
		sols := []solicitation{{state: solGotVote}}
		rehashVotes(realB, sols, []ballot{{nonce: nonce, vote: VoteDataOf(realA, nonce[:])}}, 0)
		simDis := VoteDataOf(simA, nil).(SimVote).FirstDisagreement(VoteDataOf(simB, nil).(SimVote))
		if realDis := int(sols[0].dis); simDis != realDis {
			t.Logf("seed %d: sim=%d real=%d", seed, simDis, realDis)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestWireBytesParity(t *testing.T) {
	// Network timing must not depend on the vote representation.
	spec := spec4()
	sv := VoteDataOf(content.NewSimReplica(spec, 1), []byte("n"))
	hv := VoteDataOf(content.NewRealReplica(spec, 1), []byte("n"))
	if sv.WireBytes() != hv.WireBytes() {
		t.Errorf("wire size differs: sim %d, hash %d", sv.WireBytes(), hv.WireBytes())
	}
	if sv.Blocks() != hv.Blocks() {
		t.Errorf("block count differs")
	}
}
