// Package harness runs paper scenarios against either execution stack — the
// discrete-event simulator or a cluster of real in-process nodes (loopback
// TCP transport, per-node on-disk stores) — through one RunScenario that
// takes RunSim or RunCluster, producing the same experiment.RunStats and
// metrics tables either way. It is the sim/real convergence layer: the
// cross-validation tests score the production node stack on the same
// scenarios the paper's figures use.
//
// It also owns the one loopback-cluster builder (Cluster): RunCluster, the
// fleet supervisor and the cluster tests all construct their nodes through
// it, at the one declaration of the demo-scale parameters
// (effort.DemoMBFParams, effort.DemoEffortUnit, effort.DemoCostModel,
// protocol.DemoConfig, content.DemoAUSpec).
package harness

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/store"
	"lockss/internal/world"
)

// ClusterSpec declares a cluster of real nodes on loopback TCP. Member i has
// peer identity i+1.
type ClusterSpec struct {
	// AUs is the catalogue every member preserves.
	AUs []content.AUSpec
	// Members declares the nodes.
	Members []MemberSpec
	// SeedEven starts every member at an Even grade with every other member
	// on every AU: a deployment with history rather than a cold bootstrap.
	SeedEven bool
}

// MemberSpec declares one node.
type MemberSpec struct {
	// Config is the node's configuration. The builder owns ID, Listen (an
	// ephemeral loopback port), Store, MBF and EffortUnit (the demo-scale
	// constants) and overwrites them.
	Config node.Config
	// Dir is the member's durable store directory; empty keeps its replicas
	// in memory. AUs the directory already holds are reopened as they are,
	// damage state and salt included; the others are ingested from the
	// publisher stream.
	Dir string
	// Friends is the operator's friends list, and Refs the initial reference
	// list of each AU (parallel to ClusterSpec.AUs). Nil means every other
	// member.
	Friends []ids.PeerID
	Refs    [][]ids.PeerID
}

// Member is one built node.
type Member struct {
	ID   ids.PeerID
	Node *node.Node
	// Store backs the node's replicas; nil for an in-memory member. The node
	// closes it when it stops.
	Store *store.Store
}

// Cluster is a built loopback cluster.
type Cluster struct {
	spec    ClusterSpec
	Members []*Member
}

// BuildCluster opens every member's store, ingests the AUs it lacks, and
// constructs the nodes with their reference lists, friends and grades,
// unstarted. Every store is ingested before the first node is built: a
// node's protocol clock starts at node.New, and building node 1 before
// member 2 ingests would start it early by that ingest. On an error
// everything already opened is closed.
func BuildCluster(spec ClusterSpec) (*Cluster, error) {
	c := &Cluster{spec: spec, Members: make([]*Member, len(spec.Members))}
	replicas := make([][]content.Replica, len(c.Members))
	for i := range c.Members {
		m, rs, err := c.open(i)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Members[i], replicas[i] = m, rs
	}
	for i, m := range c.Members {
		if err := c.construct(i, m, replicas[i]); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// Rebuild replaces member i, whose node must have been stopped, with a fresh
// unstarted node built from the same declaration — for a durable member, on
// whatever its store directory holds now.
func (c *Cluster) Rebuild(i int) error {
	m, replicas, err := c.open(i)
	if err != nil {
		return err
	}
	if err := c.construct(i, m, replicas); err != nil {
		m.close()
		return err
	}
	c.Members[i] = m
	return nil
}

// open opens member i's store, if it has one, and ingests the AUs it lacks,
// returning the member without its node and its replicas in catalogue
// order. On an error it closes the store before returning.
func (c *Cluster) open(i int) (_ *Member, _ []content.Replica, err error) {
	ms := c.spec.Members[i]
	m := &Member{ID: ids.PeerID(i + 1)}
	if ms.Dir != "" {
		if m.Store, err = store.Open(ms.Dir); err != nil {
			return nil, nil, fmt.Errorf("harness: node %d: %w", m.ID, err)
		}
	}
	replicas := make([]content.Replica, len(c.spec.AUs))
	for k, au := range c.spec.AUs {
		salt := world.ReplicaSalt(m.ID, au.ID)
		if m.Store == nil {
			replicas[k] = content.NewRealReplica(au, salt)
		} else if r := m.Store.Replica(au.ID); r != nil {
			replicas[k] = r
		} else if r, err = m.Store.CreateFrom(au, salt, content.PublisherReader(au)); err != nil {
			m.close()
			return nil, nil, fmt.Errorf("harness: node %d: ingest AU %d: %w", m.ID, au.ID, err)
		} else {
			replicas[k] = r
		}
	}
	return m, replicas, nil
}

// construct builds member i's node over m's replicas and gives it its
// reference lists, friends and grades. On an error the caller closes m.
func (c *Cluster) construct(i int, m *Member, replicas []content.Replica) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("harness: node %d: %w", m.ID, err)
		}
	}()
	ms := c.spec.Members[i]
	cfg := ms.Config
	cfg.ID = m.ID
	cfg.Listen = "127.0.0.1:0"
	cfg.MBF = effort.DemoMBFParams()
	cfg.EffortUnit = effort.DemoEffortUnit
	cfg.Store = m.Store
	if m.Node, err = node.New(cfg); err != nil {
		return err
	}

	others := make([]ids.PeerID, 0, len(c.Members)-1)
	for j := range c.Members {
		if j != i {
			others = append(others, ids.PeerID(j+1))
		}
	}
	for k, r := range replicas {
		refs := others
		if ms.Refs != nil {
			refs = ms.Refs[k]
		}
		if err = m.Node.AddAU(r, refs); err != nil {
			return err
		}
	}
	if c.spec.SeedEven {
		world.SeedEven(m.Node.Peer(), len(c.Members))
	}
	if ms.Friends != nil {
		others = ms.Friends
	}
	m.Node.SetFriends(others)
	return nil
}

// close stops m's node, which closes its store, or closes the store alone
// when no node was built over it.
func (m *Member) close() {
	if m.Node != nil {
		m.Node.Stop()
	} else if m.Store != nil {
		m.Store.Close()
	}
}

// Start starts every node and then exchanges the ephemeral listen addresses.
// On an error the whole cluster is stopped.
func (c *Cluster) Start() error {
	for _, m := range c.Members {
		if err := m.Node.Start(); err != nil {
			c.Stop()
			return fmt.Errorf("harness: node %d: %w", m.ID, err)
		}
	}
	for _, m := range c.Members {
		addr := m.Node.Addr().String()
		for _, o := range c.Members {
			o.Node.SetAddress(m.ID, addr)
		}
	}
	return nil
}

// Stop stops every node (each closes its store), and closes the store of
// a member whose node was never built. It is idempotent.
func (c *Cluster) Stop() {
	for _, m := range c.Members {
		if m != nil {
			m.close()
		}
	}
}
