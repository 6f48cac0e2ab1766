// Package node runs a real LOCKSS peer: the same protocol state machines as
// the simulator, driven by a monotonic clock, real SHA-256 content hashing,
// real memory-bound-function effort proofs, and encrypted TCP transport.
//
// A Node is an actor: all protocol callbacks (incoming messages, timers)
// execute on one internal goroutine, preserving the protocol package's
// single-threaded contract.
package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/session"
	"lockss/internal/sim"
	"lockss/internal/store"
	"lockss/internal/telemetry"
	"lockss/internal/wire"
)

// Config configures a networked peer.
type Config struct {
	// ID is this peer's identity.
	ID ids.PeerID
	// Listen is the TCP listen address, e.g. ":7421".
	Listen string
	// AddressBook maps peer identities to dial addresses.
	AddressBook map[ids.PeerID]string
	// Protocol is the protocol operating point (scale timeouts down for
	// demos: the defaults audit on a 3-month cadence).
	Protocol protocol.Config
	// Costs is the effort cost model used for scheduling and balancing.
	Costs effort.CostModel
	// MBF parameterizes the real proofs of effort. All peers must agree.
	MBF effort.MBFParams
	// EffortUnit is the effort-seconds one MBF walk stands for when scaling
	// proof sizes to requested costs.
	EffortUnit effort.Seconds
	// Seed drives the peer's (non-cryptographic) protocol randomness.
	Seed uint64
	// Observer receives protocol events (may be nil).
	Observer protocol.Observer
	// Tap, if non-nil, observes the exact event stream driving the protocol
	// state machine — the inbound frames delivered to the peer, live timer
	// firings, outbound messages, scrub-detected damage — synchronously on
	// the actor loop, in execution order. Invitations the read loops shed
	// never reach the peer and so are not in the stream. Trace recording
	// (internal/trace) hangs off this hook.
	Tap protocol.EnvTap
	// Logf, if non-nil, receives diagnostic logs.
	Logf func(format string, args ...any)

	// SendQueue bounds each peer's outbound message queue; when a queue is
	// full its oldest message is dropped to admit the new one (the network
	// is lossy by contract — the protocol's timeouts own reliability, and
	// fresh messages are the ones a slow peer can still use). Default 128.
	SendQueue int
	// MaxInbound caps concurrent inbound sessions across all remotes;
	// connections beyond the cap are closed at accept. Default 256.
	MaxInbound int
	// MaxInboundPerAddr caps concurrent inbound sessions per remote IP —
	// charged from accept through session end, so one address can neither
	// flood handshakes nor park established sessions to monopolize the
	// global budget. Default 16.
	MaxInboundPerAddr int

	// Store, if non-nil, is the durable on-disk AU store backing this
	// node's replicas. The node owns its lifecycle from Start on: it runs
	// the store's background scrubber (damage found on disk raises the
	// AU's audit priority), surfaces its counters via StoreStats, and
	// flushes and closes it during Stop — after every protocol goroutine
	// has drained, so no callback can touch a closed store. Register the
	// store's replicas with AddAU before Start, as with any replica.
	Store *store.Store
	// ScrubPace is the pause between scrubbed blocks (see
	// store.ScrubConfig.Pace). Default 1s.
	ScrubPace time.Duration
	// ScrubWorkers shards the scrubber across this many concurrent workers
	// (see store.ScrubConfig.Workers). Default 1.
	ScrubWorkers int
	// ScrubBandwidth caps the scrubber's total read rate in bytes/second
	// across all workers (see store.ScrubConfig.Bandwidth). 0 = unlimited.
	ScrubBandwidth int64
}

// Node is a running peer.
type Node struct {
	cfg  Config
	peer *protocol.Peer
	env  env
	// tel is the always-on flight recorder: poll-lifecycle spans and latency
	// histograms, teed into the protocol observer chain. Its record path is
	// lock-free, so it rides every deployment rather than being a debug knob.
	tel *telemetry.Telemetry

	loop     chan func()
	stop     chan struct{}
	stopped  sync.Once
	listener net.Listener
	wg       sync.WaitGroup

	// tr owns all outbound links and inbound admission (transport.go).
	tr *transport
	// gates holds each AU's published admission state, against which the
	// read loops shed invitations certain to be refractory-rejected. Filled
	// by AddAU, read-only once Start has launched the first reader.
	gates map[content.AUID]*reputation.Gate
	// dialCtx is cancelled by Stop so in-flight dials abort instead of
	// outliving shutdown by up to a full dial timeout.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu sync.Mutex
	// all tracks every live session (inbound and outbound) so Stop can
	// unblock their read loops.
	all map[*session.Conn]struct{}
	// raws tracks raw conns that are mid-handshake (no session yet) so
	// Stop can abort handshakes against silent remotes promptly.
	raws map[net.Conn]struct{}
	// addrs is the node's own copy of the address book, guarded by mu so
	// operators can bind addresses (SetAddress) after peers have started.
	addrs map[ids.PeerID]string

	// epoch is the instant New ran. timers queues the protocol's timers;
	// once Start has run only the actor loop touches it.
	epoch  time.Time
	timers *sim.Engine
}

// New builds a node. AddAU must be called before Start.
func New(cfg Config) (*Node, error) {
	if cfg.ID == ids.NoPeer {
		return nil, errors.New("node: missing peer ID")
	}
	if cfg.EffortUnit <= 0 {
		cfg.EffortUnit = 1
	}
	if cfg.MBF.TableWords == 0 {
		cfg.MBF = effort.DefaultMBFParams()
	}
	n := &Node{
		cfg:    cfg,
		tel:    telemetry.New(),
		loop:   make(chan func(), 1024),
		stop:   make(chan struct{}),
		all:    make(map[*session.Conn]struct{}),
		raws:   make(map[net.Conn]struct{}),
		addrs:  make(map[ids.PeerID]string, len(cfg.AddressBook)),
		gates:  make(map[content.AUID]*reputation.Gate),
		epoch:  time.Now(),
		timers: sim.NewEngine(),
	}
	// AddAU, a trace header and Peer.Start all see exactly Epoch.
	n.timers.Run(sim.Time(n.epoch.UnixNano()))
	for id, addr := range cfg.AddressBook {
		n.addrs[id] = addr
	}
	n.env = env{Node: n, RealEffort: protocol.NewRealEffort(cfg.ID, cfg.Seed, cfg.MBF, cfg.EffortUnit)}
	n.dialCtx, n.dialCancel = context.WithCancel(context.Background())
	n.tr = newTransport(n, newTransportConfig(cfg))
	// The telemetry recorder leads the tee so spans are recorded before any
	// user observer runs; TeeObserver also forwards span events to it.
	p, err := protocol.New(cfg.ID, &n.cfg.Protocol, &n.cfg.Costs, &n.env, protocol.TeeObserver(n.tel, cfg.Observer))
	if err != nil {
		return nil, err
	}
	n.peer = p
	return n, nil
}

// Epoch returns the protocol time of the node's bootstrap: what the peer's
// clock reads from New through Start. A trace header's StartT is this value.
func (n *Node) Epoch() sched.Time { return sched.Time(n.epoch.UnixNano()) }

// clock reads protocol time on the monotonic clock, so a step of the wall
// clock cannot move it. The actor loop reads it once a turn.
func (n *Node) clock() sched.Time { return n.Epoch() + sched.Time(time.Since(n.epoch)) }

// Peer exposes the protocol peer for inspection (replicas, stats).
func (n *Node) Peer() *protocol.Peer { return n.peer }

// Telemetry exposes the node's always-on flight recorder (histograms, poll
// spans, event ring). Safe to read concurrently with a running node.
func (n *Node) Telemetry() *telemetry.Telemetry { return n.tel }

// SetScrubPace retunes the running scrubber's per-block pause (no-op without
// a store). See store.SetScrubPace.
func (n *Node) SetScrubPace(d time.Duration) {
	if n.cfg.Store != nil {
		n.cfg.Store.SetScrubPace(d)
	}
}

// SetScrubBandwidth retunes the running scrubber's byte budget (no-op
// without a store). See store.SetScrubBandwidth.
func (n *Node) SetScrubBandwidth(bytesPerSec int64) {
	if n.cfg.Store != nil {
		n.cfg.Store.SetScrubBandwidth(bytesPerSec)
	}
}

// ID returns the node's peer identity.
func (n *Node) ID() ids.PeerID { return n.cfg.ID }

// HasStore reports whether the node runs on a durable on-disk store.
func (n *Node) HasStore() bool { return n.cfg.Store != nil }

// ScrubStalled reports whether the store's scrubber has stalled (false
// without a store). See store.ScrubStalled.
func (n *Node) ScrubStalled() bool { return n.cfg.Store != nil && n.cfg.Store.ScrubStalled() }

// Stats is one aggregate snapshot of everything the node counts: the
// protocol peer's event counters, the transport's link counters and (when
// the node runs on a durable store) the store's scrub counters. It is the
// single source for the admin API's /metrics, the -stats-interval one-liner
// and the exit statistics.
type Stats struct {
	Peer      protocol.PeerStats
	Transport TransportStats
	Store     store.Stats
}

// Stats snapshots the aggregate counters. The protocol counters are read on
// the actor loop (a post round-trip); transport and store counters are
// atomic snapshots. Blocks until the actor loop responds; after Stop it
// reads the drained peer directly. Use StatsWithin to bound the wait against
// a wedged loop.
func (n *Node) Stats() Stats {
	var ps protocol.PeerStats
	if !n.Inspect(func(p *protocol.Peer) { ps = p.Stats() }) {
		// Stopping or stopped: wait for every goroutine to drain, after
		// which nothing else touches the peer and a direct read is safe.
		n.wg.Wait()
		ps = n.peer.Stats()
	}
	return n.StatsFrom(ps)
}

// StatsWithin is Stats with a deadline (see Within): when the actor loop
// does not answer within d (wedged, overloaded or stopped), ok is false and
// only the transport and store counters are meaningful.
func (n *Node) StatsWithin(d time.Duration) (Stats, bool) {
	ps, ok := Within(n, d, (*protocol.Peer).Stats)
	return n.StatsFrom(ps), ok
}

// StatsFrom completes protocol counters read on the actor loop (see Within)
// with the transport and store counters.
func (n *Node) StatsFrom(ps protocol.PeerStats) Stats {
	s := Stats{Peer: ps, Transport: n.tr.stats(), Store: n.StoreStats()}
	// The peer counts what reached it; what the readers shed was ignored
	// just the same.
	s.Peer.InvitesIgnored += s.Transport.InvitesShed
	return s
}

// LinkInfos snapshots the transport's outbound links (queue depth, live
// session, pending backoff), sorted by peer ID. Safe to call concurrently
// with a running node.
func (n *Node) LinkInfos() []LinkInfo { return n.tr.linkInfos() }

// Addresses returns a copy of the node's current address book.
func (n *Node) Addresses() map[ids.PeerID]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[ids.PeerID]string, len(n.addrs))
	for id, addr := range n.addrs {
		out[id] = addr
	}
	return out
}

// Drain gracefully shuts the node down: the peer stops calling new polls,
// every in-flight poll runs to its conclusion (the protocol's guard timer
// bounds that by one poll window plus grace), and only then is the node
// stopped — which flushes and closes the durable store. Voter sessions keep
// serving votes and repairs until the stop, so a draining node remains
// useful to the population to its last moment. Cancelling ctx abandons the
// wait and returns without stopping; a nil error means the node is down.
// Draining an already-stopped node returns nil immediately.
func (n *Node) Drain(ctx context.Context) error {
	if !n.Inspect(func(p *protocol.Peer) { p.Drain() }) {
		return nil // already stopped
	}
	n.logf("draining: no new polls; waiting for in-flight polls")
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		idle := false
		if !n.Inspect(func(p *protocol.Peer) { idle = p.ActivePolls() == 0 }) {
			break // stopped underneath us; Stop below is idempotent
		}
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	n.logf("drained: stopping")
	n.Stop()
	return nil
}

// DropConnections closes every live session (inbound and outbound) without
// stopping the node. Peers re-establish on demand through the normal dial
// path, so this is an operational "sever and let it heal" action — the fleet
// harness uses it to make address-book partitions bite immediately instead
// of waiting for established sessions to idle out.
func (n *Node) DropConnections() {
	n.mu.Lock()
	conns := make([]*session.Conn, 0, len(n.all))
	for c := range n.all {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// TransportStats snapshots the transport counters (sends, drops, dials,
// redials, queue high-water, inbound admission). Safe to call concurrently
// with a running node.
func (n *Node) TransportStats() TransportStats { return n.tr.stats() }

// StoreStats snapshots the durable store's counters (blocks scanned,
// verified, damaged and repaired, scrub passes, manifest writes). Zero when
// the node runs without a store. Safe to call concurrently with a running
// node.
func (n *Node) StoreStats() store.Stats {
	if n.cfg.Store == nil {
		return store.Stats{}
	}
	return n.cfg.Store.Stats()
}

// AddAU registers a replica to preserve; see protocol.Peer.AddAU.
func (n *Node) AddAU(replica content.Replica, refs []ids.PeerID) error {
	if err := n.peer.AddAU(replica, refs); err != nil {
		return err
	}
	au := replica.Spec().ID
	n.gates[au] = n.peer.Reputation(au).OpenGate(n.clock())
	return nil
}

// SetFriends installs the operator's friends list.
func (n *Node) SetFriends(friends []ids.PeerID) { n.peer.SetFriends(friends) }

// SetAddress binds (or rebinds) a peer's dial address. Safe while the node
// is running — clusters that bind ephemeral listen ports fill the book
// after every member has started.
func (n *Node) SetAddress(peer ids.PeerID, addr string) {
	n.mu.Lock()
	n.addrs[peer] = addr
	n.mu.Unlock()
}

// Inspect runs fn on the actor loop and waits for it, giving callers
// race-free access to the peer's state machines and replicas while the node
// runs. It returns false (without running fn) once the node is stopped.
func (n *Node) Inspect(fn func(p *protocol.Peer)) bool {
	done := make(chan struct{})
	select {
	case n.loop <- func() { fn(n.peer); close(done) }:
	case <-n.stop:
		return false
	}
	select {
	case <-done:
		return true
	case <-n.stop:
		return false
	}
}

// Within runs fn on n's actor loop and returns its result, waiting at most
// d. ok is false when the loop did not answer in time (wedged or
// overloaded) or the node is stopped. A late fn delivers into a buffered
// channel nobody reads, so it never touches the caller's state.
func Within[T any](n *Node, d time.Duration, fn func(p *protocol.Peer) T) (T, bool) {
	type reply struct {
		v  T
		ok bool
	}
	ch := make(chan reply, 1)
	go func() {
		var r reply
		r.ok = n.Inspect(func(p *protocol.Peer) { r.v = fn(p) })
		ch <- r
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.ok
	case <-timer.C:
		var zero T
		return zero, false
	}
}

// logf logs when configured.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("node %v: %s", n.cfg.ID, fmt.Sprintf(format, args...))
	}
}

// post schedules fn on the actor loop; drops silently after Stop.
func (n *Node) post(fn func()) {
	select {
	case n.loop <- fn:
	case <-n.stop:
	}
}

// Start begins listening and launches the protocol. The peer starts first,
// at the bootstrap instant and before the actor loop exists, so nothing
// posted can reach an unstarted peer.
func (n *Node) Start() error {
	l, err := net.Listen("tcp", n.cfg.Listen)
	if err != nil {
		return fmt.Errorf("node: listen: %w", err)
	}
	n.listener = l
	n.peer.Start()
	n.wg.Add(2)
	go n.runLoop()
	go n.acceptLoop()
	if n.cfg.Store != nil {
		// Scrub found damage on disk: raise the AU's audit priority on the
		// actor loop so that if the in-flight poll fails to heal it, the
		// retry comes a quarter interval later instead of a full one. The
		// scrubber re-observes unrepaired damage every pass, re-raising the
		// priority until a poll heals the block.
		n.cfg.Store.StartScrub(store.ScrubConfig{
			Pace:      n.cfg.ScrubPace,
			Workers:   n.cfg.ScrubWorkers,
			Bandwidth: n.cfg.ScrubBandwidth,
			OnDamage: func(au content.AUID, block int) {
				n.logf("scrub: AU %d block %d damaged on disk", au, block)
				n.tel.DamageNoticed(n.cfg.ID, au, block, n.clock())
				n.post(func() {
					if n.cfg.Tap != nil {
						n.cfg.Tap.DamageNoticed(au, block, n.env.Now())
					}
					n.peer.RaiseAuditPriority(au)
				})
			},
			OnPass: func(d time.Duration) {
				n.tel.ScrubPass.Observe(int64(d))
			},
		})
	}
	n.logf("listening on %v", l.Addr())
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (n *Node) Addr() net.Addr {
	if n.listener == nil {
		return nil
	}
	return n.listener.Addr()
}

// Stop terminates the node within a bounded time regardless of peer
// behavior: the stop channel unwinds the actor loop and every per-peer
// writer, cancelling dialCtx aborts in-flight dials, and closing tracked
// sessions and mid-handshake raw conns unblocks reads, writes and
// handshakes stalled on a wedged remote. Every goroutine the node spawns is
// in n.wg, so when Wait returns nothing is left running — only then is the
// durable store (if any) flushed and closed, so no protocol callback or
// scrub pass can race a closed block file.
func (n *Node) Stop() {
	n.stopped.Do(func() {
		close(n.stop)
		n.dialCancel()
		n.tr.close()
		if n.listener != nil {
			n.listener.Close()
		}
		n.mu.Lock()
		for c := range n.all {
			c.Close()
		}
		for r := range n.raws {
			r.Close()
		}
		n.all = map[*session.Conn]struct{}{}
		n.raws = map[net.Conn]struct{}{}
		n.mu.Unlock()
	})
	n.wg.Wait()
	if n.cfg.Store != nil {
		// Store.Close is idempotent (and remembers its first error), so
		// repeated Stop calls are safe.
		if err := n.cfg.Store.Close(); err != nil {
			n.logf("store close: %v", err)
		}
	}
}

// runLoop is the actor goroutine: every protocol callback runs here. A turn
// reads the clock once, fires the timers due by then at their own instants,
// and runs the posted closure at the turn's instant.
func (n *Node) runLoop() {
	defer n.wg.Done()
	wake := time.NewTimer(0)
	defer wake.Stop()
	for {
		if at, ok := n.timers.Next(); ok {
			wake.Reset(time.Duration(at - n.clock()))
		}
		var fn func()
		select {
		case fn = <-n.loop:
		case <-wake.C:
		case <-n.stop:
			return
		}
		n.timers.Run(n.clock())
		if fn != nil {
			fn()
		}
	}
}

// acceptLoop serves inbound sessions behind the transport's admission caps.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.tr.admit(raw) {
			n.logf("inbound from %v rejected: admission cap", raw.RemoteAddr())
			raw.Close()
			continue
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.tr.inboundDone(raw)
			// Bound the handshake so a half-open connection cannot hold an
			// admission slot indefinitely; track the raw conn so Stop can
			// abort the handshake immediately.
			n.trackRaw(raw)
			raw.SetDeadline(time.Now().Add(n.tr.cfg.dialTimeout))
			conn, err := session.Server(raw)
			n.untrackRaw(raw)
			if err != nil {
				n.logf("inbound handshake failed: %v", err)
				raw.Close()
				return
			}
			raw.SetDeadline(time.Time{})
			conn.SetWriteTimeout(n.tr.cfg.writeTimeout)
			// A silent established session is reaped so it cannot park
			// its admission slots forever; real peers redial on demand.
			conn.SetReadIdleTimeout(n.tr.cfg.inboundIdle)
			n.readLoop(conn)
		}()
	}
}

// track registers a live session for shutdown; it reports false (closing
// the session) if Stop already ran, so a session that finished its
// handshake during shutdown cannot escape the close sweep.
func (n *Node) track(conn *session.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		conn.Close()
		return false
	default:
	}
	n.all[conn] = struct{}{}
	return true
}

// untrack forgets a closed session.
func (n *Node) untrack(conn *session.Conn) {
	n.mu.Lock()
	delete(n.all, conn)
	n.mu.Unlock()
}

// trackRaw registers a mid-handshake conn for Stop's close sweep; if Stop
// already ran the conn is closed on the spot so the handshake fails fast.
func (n *Node) trackRaw(raw net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		raw.Close()
	default:
		n.raws[raw] = struct{}{}
	}
}

// untrackRaw forgets a conn whose handshake resolved.
func (n *Node) untrackRaw(raw net.Conn) {
	n.mu.Lock()
	delete(n.raws, raw)
	n.mu.Unlock()
}

// readLoop decodes frames from one session and feeds the protocol. What a
// frame costs here is what a flood costs the node, so an invitation that
// admission control is certain to reject is dropped on its header alone,
// before the decode, the closure and the mailbox.
func (n *Node) readLoop(conn *session.Conn) {
	if !n.track(conn) {
		return
	}
	defer n.untrack(conn)
	defer conn.Close()
	for {
		frame, err := conn.ReadMsg()
		if err != nil {
			return
		}
		if n.sheds(frame) {
			n.tr.invitesShed.Add(1)
			continue
		}
		m, err := wire.Decode(frame)
		if err != nil {
			n.logf("bad frame: %v", err)
			return
		}
		from := senderOf(m)
		// The session reuses frame's memory on the next read, so a tap gets
		// a copy to keep; without one nothing outlives this iteration.
		var raw []byte
		if n.cfg.Tap != nil {
			raw = bytes.Clone(frame)
		}
		n.post(func() {
			if n.cfg.Tap != nil {
				n.cfg.Tap.MsgIn(from, raw, m, n.env.Now())
			}
			n.peer.Receive(from, m)
		})
	}
}

// sheds reports whether frame is a poll invitation that the AU's known-peers
// list would reject as refractory whatever its body says: the claimed poller
// is neither even/credit nor introduced, and the unknown/in-debt slot is
// closed. Everything else — other message types, AUs this node does not
// hold, invitations claiming a privileged identity or this node's own —
// goes to the actor, whose Consider remains the authority.
func (n *Node) sheds(frame []byte) bool {
	h, ok := wire.Peek(frame)
	if !ok || h.Type != protocol.MsgPoll || h.Poller == n.cfg.ID {
		return false
	}
	g := n.gates[h.AU]
	return g != nil && g.Sheds(n.clock(), h.Poller)
}

// senderOf infers the ostensible sender identity from the message role.
// Sessions are anonymous (per the paper); identity is claimed, and the
// protocol's defenses are designed for exactly that.
func senderOf(m *protocol.Msg) ids.PeerID {
	switch m.Type {
	case protocol.MsgPollAck, protocol.MsgVote, protocol.MsgRepair:
		return m.Voter
	default:
		return m.Poller
	}
}

// env adapts Node to protocol.Env: the clock, the timer queue and the TCP
// transport are the node's; randomness and proofs of effort come from the
// embedded protocol.RealEffort, the implementation trace replay shares.
type env struct {
	*Node
	protocol.RealEffort
}

// Now implements protocol.Env: the instant of the current turn or firing
// timer, in Unix nanoseconds.
func (e *env) Now() sched.Time { return e.timers.Now() }

// After implements protocol.Env. A tap learns of a firing just before its
// callback runs; a cancelled timer never fires, so the tap records exactly
// the firings that drove the state machine.
func (e *env) After(d sched.Duration, fn func()) protocol.TimerID {
	tap := e.cfg.Tap
	if tap == nil {
		return protocol.TimerID(e.timers.After(d, fn))
	}
	var id sim.EventID
	id = e.timers.After(d, func() {
		tap.TimerFired(protocol.TimerID(id), e.Now())
		fn()
	})
	return protocol.TimerID(id)
}

// Cancel implements protocol.Env.
func (e *env) Cancel(id protocol.TimerID) bool { return e.timers.Cancel(sim.EventID(id)) }

// Send implements protocol.Env. The message is encoded to bytes here,
// synchronously on the actor loop, because the protocol pools the records
// backing m's fields and may reuse them the moment this call returns; only
// the encoded buffer travels to the per-peer writer. The call never blocks:
// a full queue drops the message (transport.go).
func (e *env) Send(to ids.PeerID, m *protocol.Msg) {
	if e.cfg.Tap != nil {
		e.cfg.Tap.MsgOut(to, m, e.Now())
	}
	e.tr.send(to, m)
}
