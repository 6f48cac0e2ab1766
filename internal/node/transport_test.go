package node

import (
	"net"
	"sync"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/session"
)

// waitUntil polls cond every interval until it returns true or the deadline
// passes, reporting whether the condition was met. It mirrors
// harness.WaitFor, which node tests cannot import without a cycle.
func waitUntil(timeout, interval time.Duration, cond func() bool) bool {
	if cond() {
		return true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		time.Sleep(interval)
		if cond() {
			return true
		}
	}
	return cond()
}

// newTestNode builds an unstarted node with compressed timescales and any
// zero Config fields filled with test-friendly values.
func newTestNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	if cfg.ID == 0 {
		cfg.ID = 1
	}
	if cfg.Protocol.Quorum == 0 {
		cfg.Protocol = demoProtocolConfig()
	}
	if cfg.Costs.HashBytesPerSec == 0 {
		cfg.Costs = effort.DemoCostModel()
	}
	if cfg.MBF.TableWords == 0 {
		cfg.MBF = effort.DemoMBFParams() // tiny proof tables: nodes construct instantly
	}
	if cfg.EffortUnit == 0 {
		cfg.EffortUnit = effort.DemoEffortUnit
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestJitteredBackoff pins the backoff schedule: delay uniform in
// [cur/2, cur], doubling growth, and a hard cap.
func TestJitteredBackoff(t *testing.T) {
	minr := func(n int64) int64 { return 0 }
	maxr := func(n int64) int64 { return n - 1 }

	delay, next := jitteredBackoff(100*time.Millisecond, time.Second, minr)
	if delay != 50*time.Millisecond {
		t.Errorf("min-jitter delay = %v, want 50ms", delay)
	}
	if next != 200*time.Millisecond {
		t.Errorf("next = %v, want 200ms", next)
	}
	delay, _ = jitteredBackoff(100*time.Millisecond, time.Second, maxr)
	if delay != 100*time.Millisecond {
		t.Errorf("max-jitter delay = %v, want 100ms", delay)
	}

	// Growth doubles and saturates at the cap.
	b := 100 * time.Millisecond
	want := []time.Duration{200, 400, 800, 1000, 1000}
	for i, w := range want {
		_, b = jitteredBackoff(b, time.Second, minr)
		if b != w*time.Millisecond {
			t.Errorf("step %d: backoff = %v, want %v", i, b, w*time.Millisecond)
		}
	}

	// A current value above the cap is clamped before use.
	delay, next = jitteredBackoff(5*time.Second, time.Second, minr)
	if delay != 500*time.Millisecond || next != time.Second {
		t.Errorf("over-cap: delay = %v next = %v, want 500ms / 1s", delay, next)
	}

	// Zero and negative inputs still produce a sane, positive schedule.
	delay, next = jitteredBackoff(0, time.Second, minr)
	if delay <= 0 || next != 2*time.Millisecond {
		t.Errorf("zero cur: delay = %v next = %v", delay, next)
	}
}

// TestQueueFullDropAccounting: enqueueing past a link's capacity drops the
// excess and the counters record exactly how many, plus the high-water mark.
func TestQueueFullDropAccounting(t *testing.T) {
	n := newTestNode(t, Config{})
	defer n.Stop()

	// A link with no writer goroutine: nothing drains the queue, so the
	// arithmetic is exact.
	l := &peerLink{t: n.tr, to: 9, q: make(chan queuedFrame, 4)}
	for i := 0; i < 10; i++ {
		b := []byte{byte(i)}
		l.enqueue(queuedFrame{bufp: &b})
	}
	st := n.tr.stats()
	if st.DropsQueueFull != 6 {
		t.Errorf("DropsQueueFull = %d, want 6", st.DropsQueueFull)
	}
	if st.Drops != 6 {
		t.Errorf("Drops = %d, want 6", st.Drops)
	}
	if st.QueueHighWater != 4 {
		t.Errorf("QueueHighWater = %d, want 4", st.QueueHighWater)
	}
}

// TestQueueFullEvictsOldest: under overflow the queue keeps the freshest
// frames — stale protocol messages are the ones sacrificed.
func TestQueueFullEvictsOldest(t *testing.T) {
	n := newTestNode(t, Config{})
	defer n.Stop()

	l := &peerLink{t: n.tr, to: 9, q: make(chan queuedFrame, 4)}
	for i := byte(0); i < 10; i++ {
		b := []byte{i}
		l.enqueue(queuedFrame{bufp: &b})
	}
	var got []byte
	for len(l.q) > 0 {
		got = append(got, (*(<-l.q).bufp)[0])
	}
	want := []byte{6, 7, 8, 9}
	if string(got) != string(want) {
		t.Errorf("queue retained %v, want the newest frames %v", got, want)
	}
}

// TestUnreachablePeerBackoff: sends to a dead address are dropped by the
// writer after failed dials, dial failures are counted, and Stop returns
// promptly with a writer mid-backoff.
func TestUnreachablePeerBackoff(t *testing.T) {
	// Reserve a port, then close it so dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	n := newTestNode(t, Config{AddressBook: map[ids.PeerID]string{9: dead}})
	n.tr.cfg.backoffMin, n.tr.cfg.backoffMax = time.Millisecond, 5*time.Millisecond
	m := &protocol.Msg{Type: protocol.MsgPollAck, AU: 1, PollID: 1, Poller: 9, Voter: 1, Refuse: protocol.RefuseBusy}
	const sends = 3
	for i := 0; i < sends; i++ {
		n.tr.send(9, m)
	}
	if !waitUntil(10*time.Second, 5*time.Millisecond, func() bool {
		st := n.tr.stats()
		return st.Drops >= sends && st.DialFailures >= 1 && st.Dials >= 1
	}) {
		t.Fatalf("counters never converged: %+v", n.tr.stats())
	}

	done := make(chan struct{})
	go func() { n.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with a writer in dial backoff")
	}
}

// dialSession establishes a full client session to addr.
func dialSession(t *testing.T, addr string) *session.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := session.Client(raw)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	return c
}

// TestInboundGlobalCap: the MaxInbound-th+1 concurrent inbound connection is
// refused at accept and counted.
func TestInboundGlobalCap(t *testing.T) {
	n := newTestNode(t, Config{Listen: "127.0.0.1:0", MaxInbound: 2})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	addr := n.Addr().String()

	c1 := dialSession(t, addr)
	defer c1.Close()
	c2 := dialSession(t, addr)
	defer c2.Close()

	// Both slots held: the third connection is closed without a handshake.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := session.Client(raw); err == nil {
		t.Error("third inbound session established past MaxInbound=2")
	}
	if st := n.tr.stats(); st.InboundRejected < 1 {
		t.Errorf("InboundRejected = %d, want >= 1", st.InboundRejected)
	}
}

// TestInboundPerAddrHandshakeCap: one address stuck mid-handshake exhausts
// its per-address slot; a second handshake from the same address is refused
// while other state is untouched.
func TestInboundPerAddrHandshakeCap(t *testing.T) {
	n := newTestNode(t, Config{Listen: "127.0.0.1:0", MaxInbound: 100, MaxInboundPerAddr: 1})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	addr := n.Addr().String()

	// Hold a connection half-open: never send the client key, so the server
	// stays in its handshake and the per-address slot stays charged.
	stuck, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	if !waitUntil(10*time.Second, 2*time.Millisecond, func() bool {
		return n.tr.stats().InboundAccepted >= 1
	}) {
		t.Fatal("first connection never admitted")
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := session.Client(raw); err == nil {
		t.Error("second concurrent handshake from the same address succeeded past cap 1")
	}
	if st := n.tr.stats(); st.InboundRejected < 1 {
		t.Errorf("InboundRejected = %d, want >= 1", st.InboundRejected)
	}
}

// TestInboundPerAddrEstablishedCap: the per-address slot is held for the
// whole session, not just the handshake — one IP cannot park established
// sessions to eat the global budget.
func TestInboundPerAddrEstablishedCap(t *testing.T) {
	n := newTestNode(t, Config{Listen: "127.0.0.1:0", MaxInbound: 100, MaxInboundPerAddr: 1})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	addr := n.Addr().String()

	c1 := dialSession(t, addr) // fully established, held open
	defer c1.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := session.Client(raw); err == nil {
		t.Error("second session from the same address succeeded past per-addr cap 1")
	}
	if st := n.tr.stats(); st.InboundRejected < 1 {
		t.Errorf("InboundRejected = %d, want >= 1", st.InboundRejected)
	}
}

// TestInboundIdleReclaim: a handshaked-but-mute inbound session is reaped
// after the inbound idle timeout and its admission slots are released —
// parked sessions cannot exhaust MaxInbound.
func TestInboundIdleReclaim(t *testing.T) {
	n := newTestNode(t, Config{Listen: "127.0.0.1:0", MaxInbound: 1})
	n.tr.cfg.inboundIdle = 100 * time.Millisecond
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	addr := n.Addr().String()

	mute := dialSession(t, addr) // holds the only slot, sends nothing
	defer mute.Close()

	// Once the idle reaper fires, a fresh session must be admitted.
	if !waitUntil(10*time.Second, 25*time.Millisecond, func() bool {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := session.Client(raw)
		if err != nil {
			raw.Close()
			return false
		}
		c.Close()
		return true // slot was reclaimed
	}) {
		t.Fatal("idle inbound session never reaped; admission slot still parked")
	}
}

// sessionPair builds a client/server session over an in-memory pipe.
func sessionPair(t *testing.T) (*session.Conn, *session.Conn) {
	t.Helper()
	a, b := net.Pipe()
	ch := make(chan *session.Conn, 1)
	go func() {
		s, err := session.Server(b)
		if err != nil {
			ch <- nil
			return
		}
		ch <- s
	}()
	c, err := session.Client(a)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	s := <-ch
	if s == nil {
		t.Fatal("server handshake failed")
	}
	return c, s
}

// TestWriteFailureArmsBackoff: a write error on an established session must
// schedule the next dial into the future and grow the backoff — a peer that
// handshakes and then resets must not induce a zero-delay redial spin.
func TestWriteFailureArmsBackoff(t *testing.T) {
	n := newTestNode(t, Config{})
	n.tr.cfg.backoffMin, n.tr.cfg.backoffMax = 100*time.Millisecond, time.Second
	defer n.Stop()

	c, s := sessionPair(t)
	s.Close() // the remote resets right after the handshake
	l := &peerLink{t: n.tr, to: 9, backoff: n.tr.cfg.backoffMin}
	pc := &peerConn{c: c, dead: make(chan struct{})}

	before := time.Now()
	if got := l.deliver(pc, []byte("frame")); got != nil {
		t.Fatal("deliver returned a live conn after a write failure")
	}
	if !time.Unix(0, l.nextDialNano.Load()).After(before) {
		t.Error("write failure did not push nextDial into the future")
	}
	if l.backoff != 200*time.Millisecond {
		t.Errorf("backoff after write failure = %v, want 200ms (doubled)", l.backoff)
	}
	st := n.tr.stats()
	if st.Drops != 1 || st.Sent != 0 {
		t.Errorf("counters = %+v, want exactly one drop and no sends", st)
	}
	if st.DialFailures != 0 {
		t.Errorf("DialFailures = %d after a write failure; the counter is for dial/handshake attempts only", st.DialFailures)
	}
}

// wedgedAcceptor accepts TCP connections, completes the session handshake,
// and then never reads another byte: the paper's pipe-stoppage adversary
// realized at the transport layer.
type wedgedAcceptor struct {
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn
	count int
}

func newWedgedAcceptor(t *testing.T) *wedgedAcceptor {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &wedgedAcceptor{ln: ln}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			w.mu.Lock()
			w.conns = append(w.conns, raw)
			w.count++
			w.mu.Unlock()
			go func() {
				if _, err := session.Server(raw); err != nil {
					raw.Close()
				}
				// Session established — now go silent forever.
			}()
		}
	}()
	return w
}

func (w *wedgedAcceptor) addr() string { return w.ln.Addr().String() }

func (w *wedgedAcceptor) connections() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

func (w *wedgedAcceptor) close() {
	w.ln.Close()
	w.mu.Lock()
	for _, c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
}

// TestStopPromptWhileWriteWedged: a remote that handshakes and then never
// reads eventually blocks the per-peer writer inside a frame write (once
// the kernel socket buffers fill). Stop must still return promptly — it
// closes the session out from under the blocked write — and the bounded
// queue must have recorded drops while the writer was stuck.
func TestStopPromptWhileWriteWedged(t *testing.T) {
	w := newWedgedAcceptor(t)
	defer w.close()

	n := newTestNode(t, Config{AddressBook: map[ids.PeerID]string{9: w.addr()}, SendQueue: 8})
	n.tr.cfg.writeTimeout = time.Hour // prove Stop unblocks the write, not the deadline
	// 256 KiB frames overwhelm the socket buffers quickly.
	m := &protocol.Msg{Type: protocol.MsgRepair, AU: 1, PollID: 1, Poller: 1, Voter: 9, Block: 0, RepairData: make([]byte, 256<<10)}
	if !waitUntil(15*time.Second, time.Millisecond, func() bool {
		if n.tr.stats().DropsQueueFull > 0 {
			return true
		}
		n.tr.send(9, m)
		return false
	}) {
		t.Fatalf("writer never wedged: %+v", n.tr.stats())
	}

	done := make(chan struct{})
	go func() { n.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return while a frame write was wedged")
	}
	st := n.tr.stats()
	if st.DropsQueueFull == 0 || st.Sent == 0 {
		t.Errorf("expected sends and queue-full drops, got %+v", st)
	}
}

// TestClusterSurvivesStalledPeer is the acceptance scenario: a live cluster
// whose members all reference one wedged peer (accepts TCP, handshakes,
// never reads, never votes) must still conclude polls, and every node must
// stop within a bounded time. Run with -race.
func TestClusterSurvivesStalledPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const N = 5
	wedgedID := ids.PeerID(N + 1)
	spec := content.AUSpec{ID: 1, Name: "au-stall", Size: 128 << 10, BlockSize: 32 << 10}
	obs := &testObserver{}

	w := newWedgedAcceptor(t)
	defer w.close()

	book := make(map[ids.PeerID]string)
	nodes := make([]*Node, N)
	for i := 0; i < N; i++ {
		nodes[i] = newTestNode(t, Config{
			ID:          ids.PeerID(i + 1),
			Listen:      "127.0.0.1:0",
			AddressBook: book,
			Seed:        uint64(2000 + i),
			Observer:    obs,
			SendQueue:   32,
		})
		nodes[i].tr.cfg.writeTimeout = 300 * time.Millisecond
		nodes[i].tr.cfg.backoffMin, nodes[i].tr.cfg.backoffMax = 25*time.Millisecond, 250*time.Millisecond
	}
	for i, n := range nodes {
		refs := []ids.PeerID{wedgedID}
		for j := 0; j < N; j++ {
			if j != i {
				refs = append(refs, ids.PeerID(j+1))
			}
		}
		if err := n.AddAU(content.NewRealReplica(spec, uint64(i+1)), refs); err != nil {
			t.Fatal(err)
		}
		n.SetFriends(refs)
		for _, r := range refs {
			n.Peer().SeedGrade(spec.ID, r, reputation.Even)
		}
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		addr := n.Addr().String()
		for _, m := range nodes {
			m.SetAddress(ids.PeerID(i+1), addr)
		}
	}
	for _, m := range nodes {
		m.SetAddress(wedgedID, w.addr())
	}

	// Polls must conclude successfully despite the wedged reference peer.
	if !waitUntil(45*time.Second, 250*time.Millisecond, func() bool {
		succ, _, _ := obs.snapshot()
		return succ >= N
	}) {
		succ, other, _ := obs.snapshot()
		t.Fatalf("cluster wedged: polls ok=%d other=%d (want ok >= %d)", succ, other, N)
	}

	if w.connections() == 0 {
		t.Error("wedged peer was never contacted — scenario did not engage")
	}

	// Every node must stop within a bounded time despite the stalled links.
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func(n *Node) { defer wg.Done(); n.Stop() }(n)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return within 10s with a wedged peer in the network")
	}

	var agg TransportStats
	for _, n := range nodes {
		st := n.tr.stats()
		agg.Sent += st.Sent
		agg.Dials += st.Dials
		agg.Drops += st.Drops
	}
	if agg.Sent == 0 || agg.Dials == 0 {
		t.Errorf("transport counters empty: %+v", agg)
	}
	t.Logf("aggregate transport: %+v; wedged-peer connections: %d", agg, w.connections())
}
