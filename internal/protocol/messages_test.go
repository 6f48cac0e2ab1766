package protocol

import (
	"bytes"
	"testing"

	"lockss/internal/effort"
)

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{MsgPoll, MsgPollAck, MsgPollProof, MsgVote,
		MsgRepairRequest, MsgRepair, MsgEvaluationReceipt} {
		if s := typ.String(); s == "" || s[0] == 'M' && len(s) > 20 {
			t.Errorf("bad string for %d: %q", typ, s)
		}
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Errorf("unknown type string: %q", MsgType(99).String())
	}
}

func TestRefuseReasonStrings(t *testing.T) {
	for r := RefuseNone; r <= RefuseProtocol; r++ {
		if r.String() == "invalid" {
			t.Errorf("reason %d has no string", r)
		}
	}
}

func TestContextBindsAllIdentifiers(t *testing.T) {
	base := AppendPollContext(nil, 1, 2, 3, 4, "intro")
	variants := [][]byte{
		AppendPollContext(nil, 9, 2, 3, 4, "intro"),
		AppendPollContext(nil, 1, 9, 3, 4, "intro"),
		AppendPollContext(nil, 1, 2, 9, 4, "intro"),
		AppendPollContext(nil, 1, 2, 3, 9, "intro"),
		AppendPollContext(nil, 1, 2, 3, 4, "vote"),
	}
	for i, v := range variants {
		if bytes.Equal(base, v) {
			t.Errorf("variant %d does not change the context", i)
		}
	}
}

func TestWireSizeMonotonic(t *testing.T) {
	// A vote over more blocks must model as a larger message.
	small := &Msg{Type: MsgVote, Vote: SimVote{NumBlocks: 16}}
	large := &Msg{Type: MsgVote, Vote: SimVote{NumBlocks: 512}}
	if small.WireSize() >= large.WireSize() {
		t.Error("vote wire size not monotonic in blocks")
	}
	// A costlier proof models as a larger message.
	cheap := &Msg{Type: MsgPoll, Proof: effort.SimProof{Effort: 1, Genuine: true}}
	dear := &Msg{Type: MsgPoll, Proof: effort.SimProof{Effort: 10, Genuine: true}}
	if cheap.WireSize() >= dear.WireSize() {
		t.Error("proof wire size not monotonic in cost")
	}
}

func TestWireSizePositive(t *testing.T) {
	for _, typ := range []MsgType{MsgPoll, MsgPollAck, MsgPollProof, MsgVote,
		MsgRepairRequest, MsgRepair, MsgEvaluationReceipt} {
		m := &Msg{Type: typ}
		if m.WireSize() < headerBytes {
			t.Errorf("%v wire size %d below header", typ, m.WireSize())
		}
	}
}
