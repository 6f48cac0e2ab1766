// Package netsim implements the simulated network: per-node access links
// with bandwidth and latency, message transfer timing, and the pipe-stoppage
// control surface the network-level adversary uses.
//
// Following the paper (§6.2), the model accounts for network delays but not
// congestion: transfer time for a message is the sum of both endpoints'
// latencies plus serialization at the slower of the two access links. Pipe
// stoppage suppresses all communication to and from a victim.
package netsim

import (
	"fmt"
	"time"

	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sim"
)

// Bps is a link bandwidth in bits per second.
type Bps float64

// Standard access-link tiers from the paper: 1.5, 10 and 100 Mbps, assigned
// uniformly at random.
const (
	T1       Bps = 1.5e6
	Ethernet Bps = 10e6
	FastEth  Bps = 100e6
)

// Link describes a node's access link.
type Link struct {
	Bandwidth Bps
	Latency   sim.Duration
}

// RandomLink draws a link from the paper's distribution: bandwidth uniform
// over {1.5, 10, 100} Mbps, latency uniform over [1ms, 30ms].
func RandomLink(rnd *prng.Source) Link {
	bws := [...]Bps{T1, Ethernet, FastEth}
	lat := time.Duration(1+rnd.Int63n(30)) * time.Millisecond
	return Link{Bandwidth: bws[rnd.Intn(len(bws))], Latency: lat}
}

// Handler receives a delivered message.
type Handler func(from ids.PeerID, payload any, size int)

type node struct {
	link    Link
	handler Handler
	stopped bool
}

// delivery is one in-flight message. Records are pooled: a run delivers
// millions of messages but only a bounded number are in flight at once, so
// each carries a pre-bound run callback instead of a fresh closure per Send.
type delivery struct {
	n        *Network
	from     ids.PeerID
	src, dst *node
	payload  any
	size     int
	run      func() // bound to (*delivery).deliver once, when first allocated
}

// deliver completes the transfer and recycles the record. The record is
// recycled before the handler runs (all fields are copied out first), so a
// handler that sends in response reuses it immediately.
func (d *delivery) deliver() {
	n, from, src, dst, payload, size := d.n, d.from, d.src, d.dst, d.payload, d.size
	d.src, d.dst, d.payload = nil, nil, nil
	n.free = append(n.free, d)
	// Re-check at delivery: an attack that started mid-flight kills the
	// message, matching the paper's "suppresses all communication".
	if src.stopped || dst.stopped {
		n.DroppedStoppage++
		n.release(payload)
		return
	}
	n.Delivered++
	n.BytesDelivered += uint64(size)
	dst.handler(from, payload, size)
	n.release(payload)
}

// Network routes messages between simulated nodes on one event engine.
type Network struct {
	eng   *sim.Engine
	nodes map[ids.PeerID]*node
	free  []*delivery

	// Release, when set, receives every payload once the network is done
	// with it: after the receiving handler returns, or when the payload is
	// dropped (unknown endpoint, pipe stoppage at send or at delivery). Each
	// payload passed to Send reaches it exactly once, so its owner can
	// recycle the payload there; a handler must not keep it.
	Release func(payload any)

	// Stats, updated live.
	Sent      uint64
	Delivered uint64
	// DroppedStoppage counts messages suppressed by pipe stoppage.
	DroppedStoppage uint64
	// BytesDelivered totals delivered payload sizes.
	BytesDelivered uint64
}

// New returns an empty network bound to the engine.
func New(eng *sim.Engine) *Network {
	return NewSized(eng, 0)
}

// NewSized returns an empty network with the node table preallocated for the
// expected population size.
func NewSized(eng *sim.Engine, nodes int) *Network {
	if nodes < 0 {
		nodes = 0
	}
	return &Network{eng: eng, nodes: make(map[ids.PeerID]*node, nodes)}
}

// AddNode registers a node. Registering an existing ID panics: IDs are
// assigned centrally at population build time.
func (n *Network) AddNode(id ids.PeerID, link Link, h Handler) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %v", id))
	}
	if h == nil {
		panic("netsim: nil handler")
	}
	n.nodes[id] = &node{link: link, handler: h}
}

// SetLink replaces a node's access link.
func (n *Network) SetLink(id ids.PeerID, l Link) {
	if nd, ok := n.nodes[id]; ok {
		nd.link = l
	}
}

// SetStopped marks a node's pipe as stopped (true) or restored (false).
// While stopped, all messages to and from the node are suppressed, both
// newly sent and in flight.
func (n *Network) SetStopped(id ids.PeerID, stopped bool) {
	if nd, ok := n.nodes[id]; ok {
		nd.stopped = stopped
	}
}

// Stopped reports whether a node's pipe is currently stopped.
func (n *Network) Stopped(id ids.PeerID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.stopped
}

// transferTime returns the modeled delivery delay for size bytes from a to
// b.
func transferTime(a, b *node, size int) sim.Duration {
	bw := a.link.Bandwidth
	if b.link.Bandwidth < bw {
		bw = b.link.Bandwidth
	}
	ser := sim.Duration(float64(size*8) / float64(bw) * float64(sim.Second))
	return a.link.Latency + b.link.Latency + ser
}

// alloc takes a pooled delivery, or grows the pool.
func (n *Network) alloc() *delivery {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return d
	}
	d := &delivery{n: n}
	d.run = d.deliver
	return d
}

// release hands a payload the network is done with to Release.
func (n *Network) release(payload any) {
	if n.Release != nil {
		n.Release(payload)
	}
}

// Send dispatches payload of the given wire size from one node to another.
// Unknown endpoints and stopped pipes silently drop (the sender learns
// nothing, as in the real network).
func (n *Network) Send(from, to ids.PeerID, payload any, size int) {
	src, dst := n.nodes[from], n.nodes[to]
	n.Sent++
	if src == nil || dst == nil {
		n.release(payload)
		return
	}
	if src.stopped || dst.stopped {
		n.DroppedStoppage++
		n.release(payload)
		return
	}
	d := n.alloc()
	d.from, d.src, d.dst, d.payload, d.size = from, src, dst, payload, size
	n.eng.After(transferTime(src, dst, size), d.run)
}
