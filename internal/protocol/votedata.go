package protocol

import (
	"lockss/internal/content"
)

// VoteData is the content evidence carried by a Vote message: conceptually,
// the running hash of the voter's replica at every block boundary under the
// poll nonce.
//
// Two implementations exist: HashVote carries actual hashes (real node,
// integration tests); SimVote carries the voter's damage snapshot, from
// which the same agreement pattern is derived symbolically at a tiny
// fraction of the cost (the hashing *effort* is charged by the cost model).
// A property test asserts that SimVote.FirstDisagreement finds the block
// rehashVotes finds for identical damage states.
type VoteData interface {
	// Blocks returns the number of block boundaries covered.
	Blocks() int
	// WireBytes is the encoded size of the vote body, used to model
	// transfer time.
	WireBytes() int
}

// VoteDataOf snapshots a replica's vote under nonce, choosing the symbolic
// representation for SimReplica and real hashes otherwise.
func VoteDataOf(r content.Replica, nonce []byte) VoteData {
	if sr, ok := r.(*content.SimReplica); ok {
		return SimVote{NumBlocks: sr.Spec().Blocks(), Dam: sr.Snapshot()}
	}
	return HashVote{Hashes: r.VoteHashes(nonce)}
}

// ownVoteData is VoteDataOf for the peer's own replica of st, memoized on
// the replica's damage generation for the symbolic representation (which is
// nonce-independent). Votes are compared and encoded read-only, so reusing
// one boxed value is indistinguishable from rebuilding it.
func (p *Peer) ownVoteData(st *auState, nonce []byte) VoteData {
	sr, ok := st.replica.(*content.SimReplica)
	if !ok {
		return VoteDataOf(st.replica, nonce)
	}
	if st.ownVote == nil || st.ownVoteGen != sr.Generation() {
		st.ownVote = SimVote{NumBlocks: sr.Spec().Blocks(), Dam: sr.Snapshot()}
		st.ownVoteGen = sr.Generation()
	}
	return st.ownVote
}

// HashVote is the literal vote body: one running hash per block boundary.
type HashVote struct {
	Hashes []content.Hash
}

// Blocks implements VoteData.
func (v HashVote) Blocks() int { return len(v.Hashes) }

// WireBytes implements VoteData.
func (v HashVote) WireBytes() int { return len(v.Hashes) * 32 }

// SimVote is the symbolic vote body: the voter's damage snapshot. Because
// the running hash at boundary i depends on blocks [0, i], the first
// boundary where two replicas' hashes differ is exactly the first block
// where their damage marks differ.
type SimVote struct {
	NumBlocks int
	Dam       []content.DamageEntry // sorted by block
}

// Blocks implements VoteData.
func (v SimVote) Blocks() int { return v.NumBlocks }

// FirstDisagreement returns the smallest block index at which the running
// hash of v's replica would differ from that of o's, or -1 if they agree at
// every boundary.
func (v SimVote) FirstDisagreement(o SimVote) int {
	i, j := 0, 0
	for i < len(v.Dam) && j < len(o.Dam) {
		a, b := v.Dam[i], o.Dam[j]
		switch {
		case a.Block < b.Block:
			return a.Block // damaged here, ref correct here
		case a.Block > b.Block:
			return b.Block
		case a.Mark != b.Mark:
			return a.Block // both damaged, different corruption
		default:
			i++
			j++
		}
	}
	if i < len(v.Dam) {
		return v.Dam[i].Block
	}
	if j < len(o.Dam) {
		return o.Dam[j].Block
	}
	if v.NumBlocks != o.NumBlocks {
		return min(v.NumBlocks, o.NumBlocks)
	}
	return -1
}

// WireBytes implements VoteData: the simulated transfer size matches what
// the hash representation would have occupied, so network timing is
// representation-independent.
func (v SimVote) WireBytes() int { return v.NumBlocks * 32 }
