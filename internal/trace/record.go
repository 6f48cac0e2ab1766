package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sched"
)

// Recorder serializes a node's event stream to a trace writer. It implements
// both protocol.EnvTap (wire it as node.Config.Tap) and protocol.Observer
// (tee it into node.Config.Observer with protocol.TeeObserver), so one value
// captures the inputs and the observable outputs of a run.
//
// All tap and observer callbacks arrive on the node's actor loop, but the
// Recorder carries its own mutex so Close and Err are safe from any
// goroutine. Errors are sticky: the first write failure is remembered and
// every later event is dropped, so a full disk cannot wedge the node.
type Recorder struct {
	mu         sync.Mutex
	w          *bufio.Writer
	seq        uint64
	err        error
	headerDone bool
}

// NewRecorder wraps w. Call WriteHeader before wiring the recorder into a
// node; Close flushes buffered records.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteHeader emits the trace's first line. The caller fills the
// reconstruction fields; Kind and Version are set here.
func (r *Recorder) WriteHeader(h Header) error {
	h.Kind = "header"
	h.Version = Version
	if err := h.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.headerDone {
		return fmt.Errorf("trace: header already written")
	}
	if r.err != nil {
		return r.err
	}
	r.headerDone = true
	r.writeLine(&h)
	return r.err
}

// writeLine marshals v and appends it as one line; sticky on error. Callers
// hold r.mu.
func (r *Recorder) writeLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		r.err = fmt.Errorf("trace: marshal: %w", err)
		return
	}
	if _, err := r.w.Write(b); err != nil {
		r.err = fmt.Errorf("trace: write: %w", err)
		return
	}
	if err := r.w.WriteByte('\n'); err != nil {
		r.err = fmt.Errorf("trace: write: %w", err)
	}
}

// record assigns the next logical-clock key and writes one event line.
func (r *Recorder) record(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || !r.headerDone {
		return
	}
	r.seq++
	rec.Seq = r.seq
	r.writeLine(&rec)
}

// MsgIn implements protocol.EnvTap. The frame is retained only for the
// duration of the call (it is serialized before returning).
func (r *Recorder) MsgIn(from ids.PeerID, frame []byte, m *protocol.Msg, now sched.Time) {
	if len(frame) > MaxFrameBytes {
		r.mu.Lock()
		if r.err == nil {
			r.err = fmt.Errorf("trace: inbound frame of %d bytes exceeds recordable maximum %d", len(frame), MaxFrameBytes)
		}
		r.mu.Unlock()
		return
	}
	r.record(Record{Kind: KindRecv, T: int64(now), From: from, Frame: frame})
}

// TimerFired implements protocol.EnvTap.
func (r *Recorder) TimerFired(id protocol.TimerID, now sched.Time) {
	r.record(Record{Kind: KindTimer, T: int64(now), Timer: uint64(id)})
}

// MsgOut implements protocol.EnvTap: a summary of the outbound message, not
// its bytes (see Record).
func (r *Recorder) MsgOut(to ids.PeerID, m *protocol.Msg, now sched.Time) {
	r.record(Record{Kind: KindSend, T: int64(now), To: to, MsgType: m.Type.String(), AU: m.AU, PollID: m.PollID})
}

// DamageNoticed implements protocol.EnvTap.
func (r *Recorder) DamageNoticed(au content.AUID, block int, now sched.Time) {
	r.record(Record{Kind: KindDamage, T: int64(now), AU: au, Block: block})
}

// PollConcluded implements protocol.Observer. The poll ID and start time are
// deliberately not serialized: the trace format (and its pinned goldens) is
// byte-stable, and replay re-derives both from the input stream anyway.
func (r *Recorder) PollConcluded(peer ids.PeerID, au content.AUID, pollID uint64, outcome protocol.Outcome, started, now sched.Time) {
	r.record(Record{Kind: KindPoll, T: int64(now), AU: au, Outcome: outcome.String()})
}

// Alarm implements protocol.Observer.
func (r *Recorder) Alarm(peer ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	r.record(Record{Kind: KindAlarm, T: int64(now), AU: au})
}

// RepairApplied implements protocol.Observer.
func (r *Recorder) RepairApplied(peer ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	r.record(Record{Kind: KindRepair, T: int64(now), AU: au, Block: block})
}

// VoteSupplied implements protocol.Observer. Vote sends are already captured
// as send records; this adds nothing for replay diffing.
func (r *Recorder) VoteSupplied(voter, poller ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
}

// Close flushes buffered records and returns the sticky error. It does not
// close the underlying writer.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = fmt.Errorf("trace: flush: %w", err)
	}
	return r.err
}
