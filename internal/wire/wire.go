// Package wire implements the binary codec for LOCKSS protocol messages.
// The real networked node (cmd/lockss-node) frames these over encrypted TCP
// sessions; the simulator uses Msg.WireSize (kept consistent with this
// encoding by tests) to model transfer times without serializing.
//
// The format is length-delimited fields in fixed big-endian layout, with
// explicit tags for proof and vote representations: MBF proofs and hash votes
// only. The simulator's symbolic proofs and votes never cross the wire; their
// tags (proof 1, vote 2) are retired and decode as unknown. It is not
// self-describing: both ends run the same protocol version.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// Codec version; bump on incompatible layout changes.
const Version = 1

// Limits protect decoders from hostile inputs.
const (
	MaxNominations = 1024
	MaxBlocks      = 1 << 22 // 4M blocks per AU
	MaxRepairBytes = 64 << 20
	MaxProofUnits  = effort.MaxProofUnits
	MaxCheckpoints = 1 << 12
)

// ErrTruncated reports input shorter than its encoding requires.
var ErrTruncated = errors.New("wire: truncated message")

// Proof and vote representation tags.
const (
	proofNone  byte = 0
	proofMBF   byte = 2
	voteNone   byte = 0
	voteHashes byte = 1
)

type writer struct{ buf []byte }

func (w *writer) u8(v byte)     { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)  { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// flag reads a flag byte. Only 0 and 1 decode, so every message has one
// encoding.
func (r *reader) flag() bool {
	b := r.u8()
	if b > 1 && r.err == nil {
		r.err = fmt.Errorf("wire: flag byte %d", b)
	}
	return b == 1
}

// holds reports whether n elements of size bytes remain, so that a decoder
// allocates only for elements the frame carries.
func (r *reader) holds(n, size int) bool {
	if r.err == nil && n > (len(r.buf)-r.off)/size {
		r.err = ErrTruncated
	}
	return r.err == nil
}

func (r *reader) bytesMax(max int) []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > max {
		r.err = fmt.Errorf("wire: field of %d bytes exceeds limit %d", n, max)
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}

// encodeProof writes a tagged effort proof.
func encodeProof(w *writer, p effort.Proof) error {
	switch pr := p.(type) {
	case nil:
		w.u8(proofNone)
	case *effort.MBFProof:
		w.u8(proofMBF)
		w.u32(uint32(pr.Units))
		w.f64(float64(pr.UnitCost))
		if len(pr.Checkpoints) != pr.Units {
			return fmt.Errorf("wire: MBF proof has %d checkpoint rows for %d units", len(pr.Checkpoints), pr.Units)
		}
		if pr.Units > 0 {
			w.u32(uint32(len(pr.Checkpoints[0])))
		} else {
			w.u32(0)
		}
		for _, row := range pr.Checkpoints {
			if pr.Units > 0 && len(row) != len(pr.Checkpoints[0]) {
				return errors.New("wire: ragged MBF checkpoint rows")
			}
			for _, v := range row {
				w.u64(v)
			}
		}
		w.buf = append(w.buf, pr.Digest[:]...)
	default:
		return fmt.Errorf("wire: unencodable proof type %T", p)
	}
	return nil
}

// decodeProof reads a tagged effort proof.
func decodeProof(r *reader) effort.Proof {
	switch tag := r.u8(); tag {
	case proofNone:
		return nil
	case proofMBF:
		units := int(r.u32())
		cost := r.f64()
		rowLen := int(r.u32())
		// A proof with no rows encodes its row length as 0, and only such a
		// proof has empty rows.
		if r.err == nil && (units < 0 || units > MaxProofUnits || rowLen < 0 || rowLen > MaxCheckpoints || (units == 0) != (rowLen == 0)) {
			r.err = fmt.Errorf("wire: MBF proof dims %dx%d out of range", units, rowLen)
		}
		if !r.holds(units*rowLen, 8) {
			return nil
		}
		p := &effort.MBFProof{Units: units, UnitCost: effort.Seconds(cost)}
		p.Checkpoints = make([][]uint64, units)
		for i := 0; i < units; i++ {
			row := make([]uint64, rowLen)
			for j := range row {
				row[j] = r.u64()
			}
			p.Checkpoints[i] = row
		}
		if r.need(len(p.Digest)) {
			copy(p.Digest[:], r.buf[r.off:])
			r.off += len(p.Digest)
		}
		return p
	default:
		r.err = fmt.Errorf("wire: unknown proof tag %d", tag)
		return nil
	}
}

// encodeVote writes a tagged vote body.
func encodeVote(w *writer, v protocol.VoteData) error {
	switch vd := v.(type) {
	case nil:
		w.u8(voteNone)
	case protocol.HashVote:
		w.u8(voteHashes)
		w.u32(uint32(len(vd.Hashes)))
		for _, h := range vd.Hashes {
			w.buf = append(w.buf, h[:]...)
		}
	default:
		return fmt.Errorf("wire: unencodable vote type %T", v)
	}
	return nil
}

// decodeVote reads a tagged vote body.
func decodeVote(r *reader) protocol.VoteData {
	switch tag := r.u8(); tag {
	case voteNone:
		return nil
	case voteHashes:
		n := int(r.u32())
		if r.err == nil && (n < 0 || n > MaxBlocks) {
			r.err = fmt.Errorf("wire: %d vote hashes out of range", n)
		}
		if !r.holds(n, 32) {
			return nil
		}
		hv := protocol.HashVote{Hashes: make([]content.Hash, n)}
		for i := range hv.Hashes {
			copy(hv.Hashes[i][:], r.buf[r.off:])
			r.off += 32
		}
		return hv
	default:
		r.err = fmt.Errorf("wire: unknown vote tag %d", tag)
		return nil
	}
}

// Encode serializes a message.
func Encode(m *protocol.Msg) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 256), m)
}

// AppendEncode serializes a message, appending to dst and returning the
// extended slice. Callers on a send loop pass a recycled buffer so steady-
// state encoding does not allocate.
func AppendEncode(dst []byte, m *protocol.Msg) ([]byte, error) {
	if m == nil {
		return nil, errors.New("wire: nil message")
	}
	w := &writer{buf: dst}
	w.u8(byte(m.Type))
	w.u32(uint32(m.AU))
	w.u64(m.PollID)
	w.u32(uint32(m.Poller))
	w.u32(uint32(m.Voter))
	switch m.Type {
	case protocol.MsgPoll:
		w.u64(uint64(m.VoteBy))
		w.u64(uint64(m.PollDeadline))
		if err := encodeProof(w, m.Proof); err != nil {
			return nil, err
		}
	case protocol.MsgPollAck:
		if m.Accept {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u8(byte(m.Refuse))
	case protocol.MsgPollProof:
		w.buf = append(w.buf, m.Nonce[:]...)
		if err := encodeProof(w, m.Proof); err != nil {
			return nil, err
		}
	case protocol.MsgVote:
		if err := encodeVote(w, m.Vote); err != nil {
			return nil, err
		}
		if len(m.Nominations) > MaxNominations {
			return nil, fmt.Errorf("wire: %d nominations exceed limit", len(m.Nominations))
		}
		w.u16(uint16(len(m.Nominations)))
		for _, nom := range m.Nominations {
			w.u32(uint32(nom))
		}
		if err := encodeProof(w, m.Proof); err != nil {
			return nil, err
		}
	case protocol.MsgRepairRequest:
		w.u32(uint32(m.Block))
	case protocol.MsgRepair:
		w.u32(uint32(m.Block))
		w.bytes(m.RepairData)
	case protocol.MsgEvaluationReceipt:
		w.buf = append(w.buf, m.Receipt[:]...)
	default:
		return nil, fmt.Errorf("wire: unknown message type %v", m.Type)
	}
	return w.buf, nil
}

// HeaderSize is the length of the fixed prefix every message starts with.
const HeaderSize = 1 + 4 + 8 + 4 + 4

// Header is that prefix: enough to route a frame, or to refuse it, without
// decoding the body. Poller and Voter are claimed, like everything a remote
// sends.
type Header struct {
	Type   protocol.MsgType
	AU     content.AUID
	PollID uint64
	Poller ids.PeerID
	Voter  ids.PeerID
}

// Peek reads the header of an encoded message without allocating and without
// looking at the body; ok is false when data is shorter than a header. It
// validates nothing — a frame Peek accepts may still fail Decode.
func Peek(data []byte) (h Header, ok bool) {
	if len(data) < HeaderSize {
		return Header{}, false
	}
	return Header{
		Type:   protocol.MsgType(data[0]),
		AU:     content.AUID(binary.BigEndian.Uint32(data[1:])),
		PollID: binary.BigEndian.Uint64(data[5:]),
		Poller: ids.PeerID(binary.BigEndian.Uint32(data[13:])),
		Voter:  ids.PeerID(binary.BigEndian.Uint32(data[17:])),
	}, true
}

// Decode parses a message.
func Decode(data []byte) (*protocol.Msg, error) {
	h, ok := Peek(data)
	if !ok {
		return nil, ErrTruncated
	}
	r := &reader{buf: data, off: HeaderSize}
	m := &protocol.Msg{Type: h.Type, AU: h.AU, PollID: h.PollID, Poller: h.Poller, Voter: h.Voter}
	switch m.Type {
	case protocol.MsgPoll:
		m.VoteBy = sched.Time(r.u64())
		m.PollDeadline = sched.Time(r.u64())
		m.Proof = decodeProof(r)
	case protocol.MsgPollAck:
		m.Accept = r.flag()
		m.Refuse = protocol.RefuseReason(r.u8())
	case protocol.MsgPollProof:
		if r.need(len(m.Nonce)) {
			copy(m.Nonce[:], r.buf[r.off:])
			r.off += len(m.Nonce)
		}
		m.Proof = decodeProof(r)
	case protocol.MsgVote:
		m.Vote = decodeVote(r)
		n := int(r.u16())
		if r.err == nil && n > MaxNominations {
			r.err = fmt.Errorf("wire: %d nominations exceed limit", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Nominations = append(m.Nominations, ids.PeerID(r.u32()))
		}
		m.Proof = decodeProof(r)
	case protocol.MsgRepairRequest:
		m.Block = int32(r.u32())
	case protocol.MsgRepair:
		m.Block = int32(r.u32())
		m.RepairData = r.bytesMax(MaxRepairBytes)
	case protocol.MsgEvaluationReceipt:
		if r.need(len(m.Receipt)) {
			copy(m.Receipt[:], r.buf[r.off:])
			r.off += len(m.Receipt)
		}
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", byte(m.Type))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-r.off)
	}
	return m, nil
}
