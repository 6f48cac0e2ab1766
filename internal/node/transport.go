// Per-peer, non-blocking transport for the real node.
//
// The paper's pipe-stoppage adversary (§6) wedges a peer by accepting TCP
// connections and then never reading. Before this subsystem existed, every
// outbound write happened under the node-global mutex, so one stalled remote
// serialized all sends, froze protocol timers, and could deadlock Stop. The
// transport isolates peers from each other:
//
//   - Each remote peer gets a bounded outbound queue drained by a dedicated
//     writer goroutine. A full queue evicts its oldest message to admit the
//     new one — the network is lossy by contract; the protocol's timeouts
//     own reliability.
//   - Dialing happens in the writer, never on the caller (actor) path, with
//     exponential backoff plus jitter between failed attempts, replacing the
//     old silent re-dial-per-message to dead peers.
//   - Inbound connections pass admission control: a global cap and a
//     per-remote-address cap on concurrent inbound sessions, both charged
//     from accept until the session ends (the paper's admission-control
//     theme applied at the transport layer).
//   - Every send, drop, dial, redial and the queue high-water mark is
//     counted; Node.StatsFrom(...).Transport snapshots the counters, and
//     the admin server serves them.
package node

import (
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/session"
	"lockss/internal/wire"
)

// TransportStats is a snapshot of the node's transport counters.
type TransportStats struct {
	// Sent counts frames successfully handed to the kernel.
	Sent uint64
	// Drops counts messages discarded anywhere on the send path: queue
	// full, no route, dial or handshake failure, write failure.
	Drops uint64
	// DropsQueueFull counts the subset of Drops due to a full per-peer
	// queue (backpressure from a slow or stalled remote).
	DropsQueueFull uint64
	// Dials counts outbound dial attempts.
	Dials uint64
	// Redials counts dial attempts for peers that previously had a live
	// session (reconnects after a failure).
	Redials uint64
	// DialFailures counts dial or handshake attempts that did not produce
	// a session.
	DialFailures uint64
	// QueueHighWater is the maximum per-peer outbound queue depth observed.
	QueueHighWater uint64
	// InboundAccepted counts inbound connections admitted to handshake.
	InboundAccepted uint64
	// InboundRejected counts inbound connections refused by the admission
	// caps.
	InboundRejected uint64
	// InvitesShed counts poll invitations the read loops dropped on their
	// header because admission control was certain to reject them as
	// refractory (Node.sheds). Stats().Peer.InvitesIgnored includes them.
	InvitesShed uint64
}

// transportConfig holds the resolved transport knobs: the three admission
// bounds from node.Config (defaults applied), and fixed timeouts that are
// fields only so in-package tests can shorten them before Start.
type transportConfig struct {
	sendQueue         int
	maxInbound        int
	maxInboundPerAddr int
	// dialTimeout bounds one outbound connection attempt — the TCP dial
	// and the session handshake share this one budget. It is also the
	// deadline for each inbound handshake, i.e. how long a half-open
	// connection may hold an admission slot.
	dialTimeout time.Duration
	// writeTimeout bounds one frame write; a remote that stops reading
	// (pipe stoppage) fails the write instead of wedging the writer.
	writeTimeout time.Duration
	// backoffMin and backoffMax bound the jittered exponential backoff
	// between failed dials to the same peer.
	backoffMin time.Duration
	backoffMax time.Duration
	// inboundIdle reaps an established inbound session that stays silent
	// this long, reclaiming its admission slots — without it, an adversary
	// could park handshaked-but-mute sessions until MaxInbound is
	// exhausted. Legitimate peers transparently redial on their next send.
	inboundIdle time.Duration
}

// newTransportConfig resolves cfg's admission bounds, filling zero or
// invalid ones with the defaults documented on node.Config.
func newTransportConfig(cfg Config) transportConfig {
	tc := transportConfig{
		sendQueue:         cfg.SendQueue,
		maxInbound:        cfg.MaxInbound,
		maxInboundPerAddr: cfg.MaxInboundPerAddr,
		dialTimeout:       5 * time.Second,
		writeTimeout:      10 * time.Second,
		backoffMin:        100 * time.Millisecond,
		backoffMax:        15 * time.Second,
		inboundIdle:       5 * time.Minute,
	}
	if tc.sendQueue <= 0 {
		tc.sendQueue = 128
	}
	if tc.maxInbound <= 0 {
		tc.maxInbound = 256
	}
	if tc.maxInboundPerAddr <= 0 {
		tc.maxInboundPerAddr = 16
	}
	return tc
}

// transport owns all per-peer outbound links and the inbound admission
// state for one node.
type transport struct {
	n   *Node
	cfg transportConfig

	sent            atomic.Uint64
	drops           atomic.Uint64
	dropsQueueFull  atomic.Uint64
	dials           atomic.Uint64
	redials         atomic.Uint64
	dialFailures    atomic.Uint64
	queueHighWater  atomic.Uint64
	inboundAccepted atomic.Uint64
	inboundRejected atomic.Uint64
	invitesShed     atomic.Uint64

	// mu guards links and closed; closed stops new writer goroutines from
	// starting once Stop has begun (wg.Add must not race wg.Wait).
	mu     sync.Mutex
	links  map[ids.PeerID]*peerLink
	closed bool

	// imu guards the inbound admission state.
	imu     sync.Mutex
	inbound int                 // live inbound sessions (handshaking + established)
	perAddr map[string]int      // remote IP -> live inbound sessions
	addrOf  map[net.Conn]string // raw conn -> remote IP, for release at session end
}

func newTransport(n *Node, cfg transportConfig) *transport {
	return &transport{
		n:       n,
		cfg:     cfg,
		links:   make(map[ids.PeerID]*peerLink),
		perAddr: make(map[string]int),
		addrOf:  make(map[net.Conn]string),
	}
}

// stats snapshots the counters.
func (t *transport) stats() TransportStats {
	return TransportStats{
		Sent:            t.sent.Load(),
		Drops:           t.drops.Load(),
		DropsQueueFull:  t.dropsQueueFull.Load(),
		Dials:           t.dials.Load(),
		Redials:         t.redials.Load(),
		DialFailures:    t.dialFailures.Load(),
		QueueHighWater:  t.queueHighWater.Load(),
		InboundAccepted: t.inboundAccepted.Load(),
		InboundRejected: t.inboundRejected.Load(),
		InvitesShed:     t.invitesShed.Load(),
	}
}

// close bars new links. Existing writers exit via the node's stop channel.
func (t *transport) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// LinkInfo is an inspection snapshot of one outbound peer link (the admin
// API's /peers endpoint renders these).
type LinkInfo struct {
	// Peer is the remote identity this link serves.
	Peer ids.PeerID
	// Connected reports a live session (handshake completed, no failure
	// observed since).
	Connected bool
	// QueueDepth and QueueCap describe the bounded outbound queue.
	QueueDepth int
	QueueCap   int
	// NextDial is the earliest next dial attempt while a backoff window is
	// armed; the zero time means no backoff is pending.
	NextDial time.Time
}

// linkInfos snapshots every outbound link, sorted by peer ID. Queue depth is
// read racily (len on a channel is a point-in-time observation) and the
// atomics are monotonic snapshots — good enough for observability, and no
// lock the writer goroutines care about is held.
func (t *transport) linkInfos() []LinkInfo {
	t.mu.Lock()
	links := make([]*peerLink, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.mu.Unlock()
	out := make([]LinkInfo, 0, len(links))
	for _, l := range links {
		info := LinkInfo{
			Peer:       l.to,
			Connected:  l.up.Load(),
			QueueDepth: len(l.q),
			QueueCap:   cap(l.q),
		}
		if nano := l.nextDialNano.Load(); nano > 0 {
			info.NextDial = time.Unix(0, nano)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// encodeBufs recycles wire-encoding scratch; buffers travel through the
// per-peer queues and return to the pool after the frame is written or
// dropped.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func putEncodeBuf(bufp *[]byte) {
	*bufp = (*bufp)[:0]
	encodeBufs.Put(bufp)
}

// send encodes m synchronously — on the caller's goroutine, before the
// protocol can recycle the pooled records backing m's fields — and enqueues
// only the resulting bytes. It never blocks: a full queue evicts its oldest
// frame, and a stopped node drops the message.
func (t *transport) send(to ids.PeerID, m *protocol.Msg) {
	bufp := encodeBufs.Get().(*[]byte)
	data, err := wire.AppendEncode((*bufp)[:0], m)
	if err != nil {
		putEncodeBuf(bufp)
		t.drops.Add(1)
		t.n.logf("encode %v: %v", m.Type, err)
		return
	}
	*bufp = data
	l := t.link(to)
	if l == nil { // stopped
		putEncodeBuf(bufp)
		t.drops.Add(1)
		return
	}
	l.enqueue(queuedFrame{bufp: bufp, at: time.Now().UnixNano()})
}

// link returns the outbound link to a peer, creating it (and its writer
// goroutine) on first use. Returns nil once the transport is closed.
func (t *transport) link(to ids.PeerID) *peerLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	l := t.links[to]
	if l == nil {
		l = &peerLink{
			t:       t,
			to:      to,
			q:       make(chan queuedFrame, t.cfg.sendQueue),
			backoff: t.cfg.backoffMin,
		}
		t.links[to] = l
		t.n.wg.Add(1)
		go l.run()
	}
	return l
}

// peerLink is one peer's outbound path: a bounded queue and the writer
// goroutine that owns the connection to that peer. The atomic fields are the
// link's externally visible state (linkInfos snapshots them from any
// goroutine); everything below them is writer-goroutine state, touched by no
// one else.
type peerLink struct {
	t  *transport
	to ids.PeerID
	q  chan queuedFrame

	// up reports a live session to the peer (handshake completed, no
	// failure observed since).
	up atomic.Bool
	// nextDialNano is the earliest next dial attempt, Unix nanoseconds
	// (zero until the first failure arms a backoff window).
	nextDialNano atomic.Int64

	connected   bool          // a session existed at some point (dials after this are redials)
	backoff     time.Duration // next backoff step after a dial failure
	connectedAt time.Time     // when the current session's handshake completed
}

// queuedFrame is one encoded frame plus its enqueue instant, so the writer
// can histogram how long frames wait behind a slow link.
type queuedFrame struct {
	bufp *[]byte
	at   int64 // UnixNano at enqueue
}

// enqueue offers one encoded frame to the writer; a full queue evicts the
// oldest queued frame to make room — the protocol's time-sensitive
// messages are the fresh ones, and the stalest frame is the one its
// recipient is least likely to still want.
func (l *peerLink) enqueue(f queuedFrame) {
	for {
		select {
		case l.q <- f:
			depth := uint64(len(l.q))
			for {
				cur := l.t.queueHighWater.Load()
				if depth <= cur || l.t.queueHighWater.CompareAndSwap(cur, depth) {
					break
				}
			}
			return
		default:
		}
		select {
		case old := <-l.q:
			l.t.dropsQueueFull.Add(1)
			l.t.drops.Add(1)
			putEncodeBuf(old.bufp)
		default:
			// The writer drained a slot in the meantime; retry the send.
		}
	}
}

// peerConn pairs a session with the liveness signal from its read loop.
type peerConn struct {
	c    *session.Conn
	dead chan struct{} // closed when the read loop exits (remote hung up)
}

// run drains the queue until the node stops.
func (l *peerLink) run() {
	n := l.t.n
	defer n.wg.Done()
	var pc *peerConn
	defer func() {
		l.up.Store(false)
		if pc != nil {
			pc.c.Close()
		}
	}()
	for {
		select {
		case <-n.stop:
			return
		case f := <-l.q:
			// Queue wait is the time the frame sat behind this link's
			// earlier frames (and any dial/backoff) before the writer
			// picked it up.
			n.tel.QueueWait.Observe(time.Now().UnixNano() - f.at)
			pc = l.deliver(pc, *f.bufp)
			putEncodeBuf(f.bufp)
		}
	}
}

// deliver writes one frame, (re)connecting first if needed, and returns the
// connection to use for the next frame (nil after any failure — failures
// drop the frame; the protocol's timeouts own reliability).
func (l *peerLink) deliver(pc *peerConn, frame []byte) *peerConn {
	t := l.t
	if pc != nil {
		select {
		case <-pc.dead: // remote hung up
			pc.c.Close()
			pc = nil
			l.up.Store(false)
			// Schedule the reconnect through the backoff window: a
			// crash-looping remote must not get an instant redial just
			// because its death was noticed by the reader instead of a
			// failed write.
			l.backoffNext()
		default:
		}
	}
	if pc == nil {
		pc = l.connect()
		if pc == nil {
			t.drops.Add(1)
			// The link is known dead and the next attempt is a full
			// backoff window away: flush everything queued behind this
			// frame too. Draining one stale frame per backoff window
			// would deliver minutes-old protocol messages after the peer
			// recovers, instead of the prompt loss the protocol's
			// timeouts are designed around.
			l.flush()
			return nil
		}
	}
	if err := pc.c.WriteMsg(frame); err != nil {
		t.n.logf("send to %v: %v", l.to, err)
		t.drops.Add(1)
		pc.c.Close()
		l.up.Store(false)
		// Arm the backoff here too: a peer that handshakes and then fails
		// every write (crash loop, instant reset) must not trigger a
		// zero-delay dial+DH spin — only a successful write proves the
		// link healthy. And flush, for the same reason as the connect
		// failure above: the link is dead and the queue's contents will
		// be stale by the next window.
		l.backoffNext()
		l.flush()
		return nil
	}
	t.sent.Add(1)
	// Reset the backoff only once the session has proven longevity: a
	// write "succeeding" into the socket buffer of a peer that resets
	// right after every handshake proves nothing, and resetting on it
	// would re-arm the zero-delay spin.
	if time.Since(l.connectedAt) >= t.cfg.backoffMin {
		l.backoff = t.cfg.backoffMin
	}
	return pc
}

// connect dials and handshakes the peer, honoring the backoff window from
// previous failures. The wait, the dial and the handshake all abort promptly
// when the node stops.
func (l *peerLink) connect() *peerConn {
	t := l.t
	n := t.n
	if wait := time.Until(time.Unix(0, l.nextDialNano.Load())); wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-n.stop:
			timer.Stop()
			return nil
		case <-timer.C:
		}
	}
	n.mu.Lock()
	addr, ok := n.addrs[l.to]
	n.mu.Unlock()
	if !ok {
		n.logf("no address for %v", l.to)
		l.backoffNext() // not a dial failure: no dial was attempted
		return nil
	}
	t.dials.Add(1)
	if l.connected {
		t.redials.Add(1)
	}
	// One dialTimeout bounds the dial and the handshake together.
	deadline := time.Now().Add(t.cfg.dialTimeout)
	d := net.Dialer{Deadline: deadline}
	raw, err := d.DialContext(n.dialCtx, "tcp", addr)
	if err != nil {
		n.logf("dial %v: %v", l.to, err)
		l.dialFailed()
		return nil
	}
	// Track the raw conn so Stop can abort a handshake against a peer that
	// accepted and went silent; the deadline bounds it regardless.
	n.trackRaw(raw)
	raw.SetDeadline(deadline)
	c, err := session.Client(raw)
	n.untrackRaw(raw)
	if err != nil {
		raw.Close()
		n.logf("handshake %v: %v", l.to, err)
		l.dialFailed()
		return nil
	}
	raw.SetDeadline(time.Time{})
	c.SetWriteTimeout(t.cfg.writeTimeout)
	l.connected = true
	l.connectedAt = time.Now()
	l.up.Store(true)
	// The backoff value is NOT reset here: a handshake alone proves
	// nothing against a peer that resets right after it. deliver resets it
	// on the first successful write.
	pc := &peerConn{c: c, dead: make(chan struct{})}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(pc.dead)
		// Replies arriving on the outbound session are protocol input.
		n.readLoop(c)
	}()
	return pc
}

// flush discards every queued frame, counting each as a drop.
func (l *peerLink) flush() {
	for {
		select {
		case f := <-l.q:
			l.t.drops.Add(1)
			putEncodeBuf(f.bufp)
		default:
			return
		}
	}
}

// dialFailed records a failed dial/handshake attempt and schedules the
// next one.
func (l *peerLink) dialFailed() {
	l.t.dialFailures.Add(1)
	l.backoffNext()
}

// backoffNext pushes the next dial attempt out by the jittered backoff
// delay and doubles the backoff (capped). Used on any link failure —
// missing address, dial, handshake or write — without implying a dial was
// attempted.
func (l *peerLink) backoffNext() {
	delay, next := jitteredBackoff(l.backoff, l.t.cfg.backoffMax, rand.Int64N)
	l.nextDialNano.Store(time.Now().Add(delay).UnixNano())
	l.backoff = next
}

// jitteredBackoff maps the current backoff value to the delay before the
// next dial (uniform in [cur/2, cur], so synchronized peers desynchronize)
// and the doubled, capped backoff to use after that.
func jitteredBackoff(cur, max time.Duration, randn func(n int64) int64) (delay, next time.Duration) {
	if cur <= 0 {
		cur = time.Millisecond
	}
	if cur > max {
		cur = max
	}
	half := cur / 2
	delay = half + time.Duration(randn(int64(half)+1))
	next = cur * 2
	if next > max {
		next = max
	}
	return delay, next
}

// admit decides whether an inbound connection may proceed, charging it —
// from the moment of accept, so half-open handshakes are covered too —
// against the global session cap and the per-remote-address session cap.
// Both slots are held for the life of the session (one IP must not be able
// to monopolize the global budget by finishing cheap handshakes and parking
// the sessions). The caller must close the conn on refusal and call
// inboundDone when the session ends.
func (t *transport) admit(raw net.Conn) bool {
	ip := remoteIP(raw)
	t.imu.Lock()
	if t.inbound >= t.cfg.maxInbound || t.perAddr[ip] >= t.cfg.maxInboundPerAddr {
		t.imu.Unlock()
		t.inboundRejected.Add(1)
		return false
	}
	t.inbound++
	t.perAddr[ip]++
	t.addrOf[raw] = ip
	t.imu.Unlock()
	t.inboundAccepted.Add(1)
	return true
}

// inboundDone releases the admission slots when the session ends
// (idempotent).
func (t *transport) inboundDone(raw net.Conn) {
	t.imu.Lock()
	if ip, ok := t.addrOf[raw]; ok {
		delete(t.addrOf, raw)
		if t.perAddr[ip]--; t.perAddr[ip] <= 0 {
			delete(t.perAddr, ip)
		}
		t.inbound--
	}
	t.imu.Unlock()
}

// remoteIP extracts the host part of a conn's remote address.
func remoteIP(raw net.Conn) string {
	addr := raw.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}
