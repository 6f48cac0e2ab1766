package protocol

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sim"
	"lockss/internal/store"
)

// TestEvalCorruptRepairSupplierRetried: when the landslide says the poller
// is damaged but the first repair supplier is itself damaged at that block
// (so its repair leaves the block corrupt), the poller must re-evaluate and
// fetch from another supplier.
func TestEvalCorruptRepairSupplierRetried(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	// Poller damaged at block 2; one voter is ALSO damaged at block 2 with
	// different corruption. The landslide (4 voters disagreeing with the
	// poller) includes that damaged voter; if it supplies the repair, the
	// block stays damaged and the loop must try another source.
	h.replica.Damage(2)
	h.voters[2].replica.Damage(2)
	h.p.Start()
	h.pump(3 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Errorf("poller still damaged after retries: %v", h.replica.Snapshot())
	}
}

// TestEvalMultipleDamagedBlocks: several damaged blocks on the poller are
// all repaired within one poll.
func TestEvalMultipleDamagedBlocks(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(0)
	h.replica.Damage(2)
	h.replica.Damage(3)
	h.p.Start()
	h.pump(2 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Errorf("multi-block damage not fully repaired: %v", h.replica.Snapshot())
	}
	if h.p.Stats().RepairsReceived < 3 {
		t.Errorf("only %d repairs received", h.p.Stats().RepairsReceived)
	}
}

// TestEvalVoterAndPollerDamagedDifferentBlocks: a damaged voter must not
// stop the poller from repairing its own damage elsewhere.
func TestEvalVoterAndPollerDamagedDifferentBlocks(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(1)
	h.voters[4].replica.Damage(3)
	h.p.Start()
	h.pump(2 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Error("poller damage not repaired")
	}
	if h.p.Stats().PollsSucceeded == 0 {
		t.Error("poll did not succeed")
	}
}

// TestEvalReceiptsSentToAllVoters: every voter that supplied a vote gets an
// evaluation receipt, including damaged (excluded) ones.
func TestEvalReceiptsSentToAllVoters(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.voters[3].replica.Damage(1) // will be excluded from the tally
	h.p.Start()
	h.pump(sim.Duration(cfg.PollInterval) * 3 / 2)
	for v := range h.voters {
		if h.receiptsGot[v] == 0 {
			t.Errorf("voter %v got no receipt", v)
		}
	}
}

// TestEvalLengthMismatchedVoteRejected: a vote body with the wrong block
// count is discarded and penalized rather than evaluated.
func TestEvalLengthMismatchedVoteRejected(t *testing.T) {
	env := newFakeEnv(21)
	cfg := testConfig()
	p, _ := newTestPeer(t, env, 1, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	p.Start()
	// Drive until a PollProof goes out to some voter, then reply with a
	// malformed vote.
	deadline := env.eng.Now().Add(2 * sim.Duration(cfg.PollInterval))
	for {
		done := false
		for _, s := range env.take() {
			switch s.m.Type {
			case MsgPoll:
				env.eng.After(1, func() {
					p.Receive(s.to, &Msg{Type: MsgPollAck, AU: s.m.AU, PollID: s.m.PollID,
						Poller: p.ID(), Voter: s.to, Accept: true})
				})
			case MsgPollProof:
				bad := &Msg{Type: MsgVote, AU: s.m.AU, PollID: s.m.PollID,
					Poller: p.ID(), Voter: s.to,
					Vote: SimVote{NumBlocks: 99, Dam: []content.DamageEntry{}}}
				env.eng.After(1, func() { p.Receive(s.to, bad) })
				done = true
			}
		}
		if done {
			break
		}
		next, ok := env.eng.Next()
		if !ok || next > deadline {
			t.Fatal("no PollProof ever sent")
		}
		env.eng.Step()
	}
	// Let the bad vote arrive.
	for i := 0; i < 10; i++ {
		env.eng.Step()
	}
	if p.Stats().VotesReceived != 0 {
		t.Error("malformed vote accepted into the tally")
	}
}

// countingReplica records how an evaluation reads the replica it wraps: the
// blocks each WalkBlocks call visits, and the VoteHashes calls.
type countingReplica struct {
	content.Replica
	voteHashes int
	walks      [][]int
}

func (c *countingReplica) VoteHashes(nonce []byte) []content.Hash {
	c.voteHashes++
	return c.Replica.VoteHashes(nonce)
}

func (c *countingReplica) WalkBlocks(from int, fn func(int, []byte) bool) {
	w := len(c.walks)
	c.walks = append(c.walks, nil)
	c.Replica.WalkBlocks(from, func(i int, b []byte) bool {
		c.walks[w] = append(c.walks[w], i)
		return fn(i, b)
	})
}

// TestEvaluationReadsEachBlockOnce: with five hash votes, a poller's
// evaluation never calls VoteHashes and reads its replica in one pass — to
// the end when every vote agrees; to block k and no further when the
// landslide disagrees at k; and after the repair, from k on only.
func TestEvaluationReadsEachBlockOnce(t *testing.T) {
	const n, k = 8, 3
	spec := content.AUSpec{ID: 1, Name: "au", Size: n*1024 - 100, BlockSize: 1024}
	blocks := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		damaged bool
		want    [][]int
	}{
		{"clean", false, [][]int{blocks(0, n)}},
		{"damaged at k", true, [][]int{blocks(0, k+1), blocks(k, n)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pollerConfig()
			var poller *countingReplica
			h := newPollerHarnessOf(t, cfg, []ids.PeerID{2, 3, 4, 5, 6}, func(salt uint64) content.Replica {
				r := content.NewRealReplica(spec, salt)
				if salt == 1 {
					poller = &countingReplica{Replica: r}
					return poller
				}
				return r
			})
			if tc.damaged {
				poller.Damage(k)
			}
			h.p.Start()
			h.pumpUntil(3*sim.Duration(cfg.PollInterval), func() bool { return h.p.Stats().PollsConcluded() > 0 })
			if st := h.p.Stats(); st.PollsSucceeded != 1 || st.VotesReceived != 5 {
				t.Fatalf("want one successful poll on 5 votes, got %+v", st)
			}
			if poller.Damaged() {
				t.Error("poller still damaged")
			}
			if poller.voteHashes != 0 {
				t.Errorf("evaluation called VoteHashes %d times", poller.voteHashes)
			}
			if !reflect.DeepEqual(poller.walks, tc.want) {
				t.Errorf("evaluation read blocks %v, want %v", poller.walks, tc.want)
			}
		})
	}
}

// FuzzEvaluationMatchesRehash: the one-pass evaluation sets every vote's
// first disagreement to what a full re-hash of the poller under the vote's
// nonce gives — after the first pass and after every repair — for any AU
// shape, damage on both sides, and votes that are truncated, extended,
// carry one garbage hash, or are not hash votes at all.
func FuzzEvaluationMatchesRehash(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16), uint8(3), uint8(6))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(3), uint8(15), uint8(31), uint8(30), uint8(7))
	f.Add(uint64(4), uint8(5), uint8(4), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, blocks, blockSize, cut, repairs uint8) {
		bs := int64(blockSize%32) + 1
		spec := content.AUSpec{ID: 7, Name: "fuzz", Size: (int64(blocks%16)+1)*bs - int64(cut)%bs, BlockSize: bs}
		checkEvaluationMatchesRehash(t, content.NewRealReplica(spec, 1), prng.New(seed), int(repairs%8))
	})
}

// TestEvaluationMatchesRehashOnStore is the fuzz property on a durable,
// store-backed poller.
func TestEvaluationMatchesRehashOnStore(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := content.AUSpec{ID: 7, Name: "store", Size: 12*512 - 100, BlockSize: 512}
	r, err := s.CreateFrom(spec, 1, content.PublisherReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	checkEvaluationMatchesRehash(t, r, prng.New(5), 16)
}

// checkEvaluationMatchesRehash damages up to two blocks of poller and of
// each of up to six voters, builds the voters' votes (some altered), and
// checks rehashVotes against hashDisagreement after a first pass,
// after each of repairs repairs of a random block with a random voter's
// bytes, and after restarts at blocks out of range.
func checkEvaluationMatchesRehash(t *testing.T, poller content.Replica, rng *prng.Source, repairs int) {
	t.Helper()
	spec := poller.Spec()
	n := spec.Blocks()
	damage := func(r content.Replica) {
		for d := rng.Intn(3); d > 0; d-- {
			r.Damage(rng.Intn(n))
		}
	}
	damage(poller)
	voters := make([]content.Replica, 1+rng.Intn(6))
	// Two more solicitations that no pass may touch, and whose missing
	// ballots no pass may read: an excluded vote and one still awaited.
	sols := make([]solicitation, len(voters)+2)
	ballots := make([]ballot, len(voters))
	sols[len(voters)].state, sols[len(voters)].excluded = solGotVote, true
	sols[len(voters)+1].state = solAwaitVote
	const untouched = 9999
	for j := range sols {
		sols[j].dis = untouched
		sols[j].ballot = noBallot
		if j >= len(voters) {
			continue
		}
		v := content.NewRealReplica(spec, uint64(100+j))
		damage(v)
		voters[j] = v
		sol, b := &sols[j], &ballots[j]
		sol.state, sol.ballot = solGotVote, int16(j)
		binary.BigEndian.PutUint64(b.nonce[:], rng.Uint64())
		h := v.VoteHashes(b.nonce[:])
		switch rng.Intn(5) {
		case 1:
			h = h[:rng.Intn(len(h))]
		case 2:
			h = append(h, make([]content.Hash, 1+rng.Intn(3))...)
		case 3:
			h[rng.Intn(len(h))][0] ^= 0xff
		case 4:
			b.vote = SimVote{NumBlocks: n}
			continue
		}
		b.vote = HashVote{Hashes: h}
	}
	check := func(step string) {
		t.Helper()
		for j := range sols {
			sol := &sols[j]
			want := untouched
			if sol.state == solGotVote && !sol.excluded {
				b := &ballots[sol.ballot]
				want = hashDisagreement(b.vote, VoteDataOf(poller, b.nonce[:]).(HashVote))
			}
			if int(sol.dis) != want {
				t.Fatalf("%s: vote %d of %d blocks: dis = %d, a full re-hash gives %d", step, j, n, sol.dis, want)
			}
		}
	}
	rehashVotes(poller, sols, ballots, 0)
	check("first pass")
	for r := 0; r < repairs; r++ {
		b := rng.Intn(n)
		data, err := voters[rng.Intn(len(voters))].RepairBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := poller.ApplyRepair(b, data); err != nil {
			t.Fatal(err)
		}
		rehashVotes(poller, sols, ballots, b)
		check(fmt.Sprintf("after repair %d at block %d", r, b))
	}
	// A hostile Repair may name a block the AU does not have.
	for _, b := range []int{-1, n + 1} {
		rehashVotes(poller, sols, ballots, b)
		check(fmt.Sprintf("restart at out-of-range block %d", b))
	}
}
