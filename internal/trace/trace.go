// Package trace records and replays the exact event stream that drives one
// node's protocol state machine. The recording tap (Recorder) captures, in
// actor-loop execution order: decoded inbound frames, live timer firings,
// scrub-detected damage, plus the peer's observable outputs (sends, poll
// conclusions, repairs, alarms). Because the protocol layer is a
// deterministic function of that input stream — single-threaded, with all
// randomness drawn from a seeded PRNG recorded in the header — the Replay
// engine can re-execute a captured trace offline through the simulator-style
// environment and diff the replayed outputs against the recorded ones. Any
// fleet bug whose trace is captured becomes a reproducible offline test case
// (after O'Callahan et al., "Lightweight User-Space Record And Replay").
//
// A trace is a JSONL file: line 1 is the Header, every subsequent line one
// Record carrying a strictly sequential logical-clock key assigned on the
// actor loop. The format is versioned via Header.Version; readers reject
// versions they do not understand.
package trace

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
)

// Version is the trace format version this package writes and the only
// version it reads. A recording resolves timer firings by ID, so the format
// changes whenever the protocol arms its timers differently or IDs are issued
// differently: version 2 counts one solicitation timer per poll where version
// 1 counted one per invitee, version 3 records sim.Engine event IDs (slot |
// generation<<32) where version 2 counted 1, 2, 3…, and version 4 changes what
// a recorded AU denotes: its bytes are the publisher's AES-256-CTR keystream,
// where a version 3 trace's AUs denote the SHA-256 chain that preceded it.
const Version = 4

// MaxFrameBytes bounds one recorded wire frame; traces are a debugging
// format for demo-scale clusters, not bulk transfer.
const MaxFrameBytes = 4 << 20

// MaxLineBytes bounds one serialized trace line (a frame base64-expands by
// 4/3, plus JSON overhead).
const MaxLineBytes = 8 << 20

// Record kinds. Input kinds drive the replayed state machine; output kinds
// pin the observable behavior the replay is diffed against.
const (
	// KindRecv is an inbound frame, recorded after decode and immediately
	// before delivery to the protocol. Input.
	KindRecv = "recv"
	// KindTimer is a live protocol timer firing. Cancelled timers are never
	// recorded. Input.
	KindTimer = "timer"
	// KindDamage is scrub-detected on-disk damage, recorded at the point it
	// is raised to the protocol as an expedited-audit request. Input.
	KindDamage = "damage"
	// KindSend is an outbound protocol message (summary, not bytes). Output.
	KindSend = "send"
	// KindPoll is a concluded poll with its outcome. Output.
	KindPoll = "poll"
	// KindRepair is a repair applied to a local replica block. Output.
	KindRepair = "repair"
	// KindAlarm is an inconclusive-poll alarm. Output.
	KindAlarm = "alarm"
)

// GradeRef seeds one acquaintance grade in the header.
type GradeRef struct {
	Peer  ids.PeerID `json:"peer"`
	Grade uint8      `json:"grade"`
}

// DamageRef names one damaged block.
type DamageRef struct {
	AU    content.AUID `json:"au"`
	Block int          `json:"block"`
}

// AUHeader captures one archival unit's bootstrap state: its published
// shape, the replica salt, and the ordered reference list. Order matters —
// replay re-executes AddAU and SeedGrade calls in exactly this order so the
// peer's internal registration order (and hence its randomness consumption)
// matches the recorded run.
type AUHeader struct {
	ID        content.AUID `json:"id"`
	Name      string       `json:"name"`
	Size      int64        `json:"size"`
	BlockSize int64        `json:"blockSize"`
	Salt      uint64       `json:"salt"`
	Refs      []ids.PeerID `json:"refs"`
	Grades    []GradeRef   `json:"grades,omitempty"`
}

// Spec returns the AU's published shape.
func (a AUHeader) Spec() content.AUSpec {
	return content.AUSpec{ID: a.ID, Name: a.Name, Size: a.Size, BlockSize: a.BlockSize}
}

// Header is the first line of a trace: everything needed to reconstruct the
// recorded peer at its start state. The determinism contract is that a peer
// built from this header and fed the trace's input records re-derives the
// trace's output records exactly.
type Header struct {
	Kind    string `json:"k"` // always "header"
	Version int    `json:"v"`
	// Peer is the recorded node's identity.
	Peer ids.PeerID `json:"peer"`
	// Seed is the node's protocol randomness seed (node.Config.Seed; the
	// per-peer stream derives from it exactly as in the node).
	Seed uint64 `json:"seed"`
	// StartT is the environment clock (Unix nanoseconds) at Peer.Start: the
	// node's Epoch.
	StartT int64 `json:"start"`
	// Protocol, Costs, MBF and EffortUnit reproduce the node's operating
	// point; MBF proofs are deterministic given these.
	Protocol   protocol.Config  `json:"protocol"`
	Costs      effort.CostModel `json:"costs"`
	MBF        effort.MBFParams `json:"mbf"`
	EffortUnit float64          `json:"effortUnit"`
	// Friends is the operator friends list, in SetFriends order.
	Friends []ids.PeerID `json:"friends,omitempty"`
	// AUs lists the preserved units in AddAU order.
	AUs []AUHeader `json:"aus"`
	// Injected lists blocks that were silently damaged on disk before the
	// recording started (injected rot the scrubber had not yet found).
	// Replay applies equivalent damage up front: the corrupt bytes differ
	// from the on-disk ones, but any non-canonical content disagrees with
	// the canonical vote hashes identically, so poll outcomes match.
	Injected []DamageRef `json:"injected,omitempty"`
}

// validate checks the header's internal consistency.
func (h *Header) validate() error {
	if h.Kind != "header" {
		return fmt.Errorf("trace: first line kind %q, want \"header\"", h.Kind)
	}
	if h.Version != Version {
		return fmt.Errorf("trace: version %d unsupported (reader speaks %d)", h.Version, Version)
	}
	if h.Peer == ids.NoPeer {
		return fmt.Errorf("trace: header missing peer identity")
	}
	if len(h.AUs) == 0 {
		return fmt.Errorf("trace: header lists no AUs")
	}
	if h.EffortUnit <= 0 {
		return fmt.Errorf("trace: header effort unit %g not positive", h.EffortUnit)
	}
	if err := h.Protocol.Validate(); err != nil {
		return fmt.Errorf("trace: header protocol config: %w", err)
	}
	if h.MBF.TableWords <= 0 || h.MBF.Steps <= 0 || h.MBF.Checkpoints <= 0 || h.MBF.VerifySegments <= 0 {
		return fmt.Errorf("trace: header MBF params invalid")
	}
	// Traces are demo-scale; cap the proof parameters so a hostile header
	// cannot demand gigabyte tables or unbounded walks from the replayer.
	if h.MBF.TableWords > 1<<24 || h.MBF.Steps > 1<<24 ||
		h.MBF.Checkpoints > 1<<12 || h.MBF.VerifySegments > h.MBF.Checkpoints {
		return fmt.Errorf("trace: header MBF params exceed replayable bounds")
	}
	seen := make(map[content.AUID]bool, len(h.AUs))
	for _, au := range h.AUs {
		if au.ID == 0 {
			return fmt.Errorf("trace: header AU with zero ID")
		}
		if seen[au.ID] {
			return fmt.Errorf("trace: header AU %d listed twice", au.ID)
		}
		seen[au.ID] = true
		if au.Size <= 0 || au.BlockSize <= 0 {
			return fmt.Errorf("trace: header AU %d has non-positive size or block size", au.ID)
		}
		if au.Size > 64<<20 {
			return fmt.Errorf("trace: header AU %d size %d exceeds the replayable maximum %d", au.ID, au.Size, 64<<20)
		}
	}
	for _, d := range h.Injected {
		au, ok := h.au(d.AU)
		if !ok {
			return fmt.Errorf("trace: injected damage names unknown AU %d", d.AU)
		}
		if d.Block < 0 || d.Block >= au.Spec().Blocks() {
			return fmt.Errorf("trace: injected damage block %d out of range for AU %d", d.Block, d.AU)
		}
	}
	return nil
}

// au finds an AU header by ID.
func (h *Header) au(id content.AUID) (AUHeader, bool) {
	for _, a := range h.AUs {
		if a.ID == id {
			return a, true
		}
	}
	return AUHeader{}, false
}

// Record is one trace event. Seq is the logical clock: strictly sequential
// from 1, assigned on the actor loop, so the file order is the execution
// order. T is the environment clock (Unix nanoseconds) when the event was
// observed; replay pins its clock to it. Block deliberately has no omitempty
// — block 0 is a valid index.
type Record struct {
	Kind string `json:"k"`
	Seq  uint64 `json:"q"`
	T    int64  `json:"t"`

	// recv fields: the claimed sender and the decoded wire frame.
	From  ids.PeerID `json:"from,omitempty"`
	Frame []byte     `json:"frame,omitempty"`

	// timer fields.
	Timer uint64 `json:"timer,omitempty"`

	// send fields (To, MsgType, AU, PollID) — a summary sufficient for
	// divergence diffing; payload bytes are intentionally excluded because
	// injected-corruption bytes are replica-mark-dependent.
	To      ids.PeerID `json:"to,omitempty"`
	MsgType string     `json:"mt,omitempty"`

	// damage / send / poll / repair / alarm fields.
	AU     content.AUID `json:"au,omitempty"`
	Block  int          `json:"block"`
	PollID uint64       `json:"poll,omitempty"`

	// poll fields.
	Outcome string `json:"outcome,omitempty"`
}

// IsInput reports whether the record drives the replayed state machine (as
// opposed to pinning its expected output).
func (r *Record) IsInput() bool {
	switch r.Kind {
	case KindRecv, KindTimer, KindDamage:
		return true
	}
	return false
}

// validate checks one record against the header and the previous sequence
// number.
func (r *Record) validate(h *Header, prevSeq uint64) error {
	if r.Seq != prevSeq+1 {
		return fmt.Errorf("trace: record %q out of order: seq %d after %d", r.Kind, r.Seq, prevSeq)
	}
	switch r.Kind {
	case KindRecv:
		if len(r.Frame) == 0 {
			return fmt.Errorf("trace: recv record %d has no frame", r.Seq)
		}
		if len(r.Frame) > MaxFrameBytes {
			return fmt.Errorf("trace: recv record %d frame exceeds %d bytes", r.Seq, MaxFrameBytes)
		}
	case KindTimer:
		if r.Timer == 0 {
			return fmt.Errorf("trace: timer record %d has zero timer ID", r.Seq)
		}
	case KindDamage, KindRepair:
		au, ok := h.au(r.AU)
		if !ok {
			return fmt.Errorf("trace: %s record %d names unknown AU %d", r.Kind, r.Seq, r.AU)
		}
		if r.Block < 0 || r.Block >= au.Spec().Blocks() {
			return fmt.Errorf("trace: %s record %d block %d out of range for AU %d", r.Kind, r.Seq, r.Block, r.AU)
		}
	case KindSend:
		if r.To == ids.NoPeer {
			return fmt.Errorf("trace: send record %d has no recipient", r.Seq)
		}
		if r.MsgType == "" {
			return fmt.Errorf("trace: send record %d has no message type", r.Seq)
		}
	case KindPoll:
		if _, ok := h.au(r.AU); !ok {
			return fmt.Errorf("trace: poll record %d names unknown AU %d", r.Seq, r.AU)
		}
		if r.Outcome == "" {
			return fmt.Errorf("trace: poll record %d has no outcome", r.Seq)
		}
	case KindAlarm:
		if _, ok := h.au(r.AU); !ok {
			return fmt.Errorf("trace: alarm record %d names unknown AU %d", r.Seq, r.AU)
		}
	default:
		return fmt.Errorf("trace: record %d has unknown kind %q", r.Seq, r.Kind)
	}
	return nil
}

// Key renders the record's divergence-diff key: the normalized one-line form
// of an observable output. Input records have no key.
func (r *Record) Key() string {
	switch r.Kind {
	case KindSend:
		return fmt.Sprintf("send to=%d type=%s au=%d poll=%d", r.To, r.MsgType, r.AU, r.PollID)
	case KindPoll:
		return fmt.Sprintf("poll au=%d outcome=%s", r.AU, r.Outcome)
	case KindRepair:
		return fmt.Sprintf("repair au=%d block=%d", r.AU, r.Block)
	case KindAlarm:
		return fmt.Sprintf("alarm au=%d", r.AU)
	}
	return ""
}

// Trace is a fully read and validated trace file.
type Trace struct {
	Header Header
	Events []Record
}

// Outputs returns the recorded observable-output keys in order.
func (t *Trace) Outputs() []string {
	var out []string
	for i := range t.Events {
		if k := t.Events[i].Key(); k != "" {
			out = append(out, k)
		}
	}
	return out
}
