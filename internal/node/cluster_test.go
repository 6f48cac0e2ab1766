package node_test

import (
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/harness"
	"lockss/internal/node"
	"lockss/internal/protocol"
)

// TestClusterAuditAndRepair boots a real 6-node TCP cluster of in-memory
// replicas (built by the shared loopback-cluster builder, which this package
// can only reach from an external test) with one damaged replica and waits
// for the audit protocol to detect and repair it using real hashing, MBF
// proofs and encrypted sessions.
func TestClusterAuditAndRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const N = 6
	spec := content.AUSpec{ID: 1, Name: "au-demo", Size: 128 << 10, BlockSize: 32 << 10}
	pcfg, err := protocol.DemoConfig(1500*time.Millisecond, 3, 5, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	cs := harness.ClusterSpec{AUs: []content.AUSpec{spec}, Members: make([]harness.MemberSpec, N), SeedEven: true}
	for i := range cs.Members {
		cs.Members[i].Config = node.Config{
			Protocol: pcfg,
			Costs:    effort.DemoCostModel(),
			Seed:     uint64(1000 + i),
		}
	}
	c, err := harness.BuildCluster(cs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Node 0's replica suffers bit rot at block 2 before the system starts.
	if r := c.Members[0].Node.Peer().Replica(spec.ID); !r.Damage(2) || !r.Damaged() {
		t.Fatal("damage injection failed")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// Replicas belong to their node's actor loop once started; Inspect and
	// Stats give the test race-free reads.
	damaged0 := func() (d bool) {
		c.Members[0].Node.Inspect(func(p *protocol.Peer) { d = p.Replica(spec.ID).Damaged() })
		return d
	}
	polls := func() (ok, other uint64) {
		for _, m := range c.Members {
			s := m.Node.Stats().Peer
			ok += s.PollsSucceeded
			other += s.PollsInquorate + s.PollsInconclusive + s.PollsRepairFailed
		}
		return ok, other
	}
	if !harness.WaitFor(30*time.Second, 250*time.Millisecond, func() bool {
		ok, _ := polls()
		return !damaged0() && ok >= N
	}) {
		ok, other := polls()
		t.Fatalf("cluster did not repair in time: damaged=%v polls ok=%d other=%d", damaged0(), ok, other)
	}
}
