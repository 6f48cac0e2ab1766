package harness

import (
	"path/filepath"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/node"
	"lockss/internal/store"
)

// newTestCluster builds (without starting) an N-node loopback cluster over
// on-disk stores, all preserving one copy of spec, fully meshed with Even
// grades. Per-node customization (taps, observers) goes through mod. The
// cluster is stopped when the test ends.
func newTestCluster(t *testing.T, n int, spec content.AUSpec, mod func(i int, cfg *node.Config)) *Cluster {
	t.Helper()
	cs := ClusterSpec{AUs: []content.AUSpec{spec}, Members: make([]MemberSpec, n), SeedEven: true}
	for i := range cs.Members {
		cfg := node.Config{
			Protocol:  demoProtocolConfig(),
			Costs:     effort.DemoCostModel(),
			Seed:      uint64(2000 + i),
			ScrubPace: 10 * time.Millisecond,
		}
		if mod != nil {
			mod(i, &cfg)
		}
		cs.Members[i] = MemberSpec{Config: cfg, Dir: filepath.Join(t.TempDir(), "data")}
	}
	c, err := BuildCluster(cs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestClusterRepairsDurableStore is the durable-storage acceptance test
// (ported from the node package onto the harness helpers): a real TCP
// cluster whose replicas live in on-disk stores. One node suffers *silent*
// bit rot (injected directly into its block file, manifest untouched); its
// scrubber must find and mark the damage, and the audit protocol must
// confirm it against the other nodes' votes and repair the actual bytes on
// disk — after which the store is reopened from disk and every manifest
// verifies.
func TestClusterRepairsDurableStore(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const N = 6
	spec := content.AUSpec{ID: 1, Name: "au-durable", Size: 128 << 10, BlockSize: 32 << 10}
	c := newTestCluster(t, N, spec, nil)
	node0, store0 := c.Members[0].Node, c.Members[0].Store

	// Node 0's disk rots silently at block 2 before the cluster starts:
	// real bits flip in blocks.dat, the manifest still vouches for the old
	// content, and no damage mark exists anywhere.
	if err := store0.InjectDamage(spec.ID, 2); err != nil {
		t.Fatal(err)
	}
	if store0.Replica(spec.ID).Damaged() {
		t.Fatal("injected damage must be silent")
	}

	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		if !WaitFor(45*time.Second, 100*time.Millisecond, cond) {
			succ, other, repairs := pollCounts(c)
			t.Fatalf("%s did not happen in time (polls ok=%d other=%d repairs=%d, store0 %+v)",
				what, succ, other, repairs, node0.StoreStats())
		}
	}

	// Phase 1: the scrubber finds the silent rot and marks it.
	waitFor("scrub detection", func() bool {
		return node0.StoreStats().BlocksDamaged >= 1
	})

	// Phase 2: polls confirm the damage against the cluster and repair the
	// bytes on disk; the whole store verifies again.
	waitFor("poll-driven repair", func() bool {
		dam := store0.VerifyAll()
		return dam == nil && !store0.Replica(spec.ID).Damaged()
	})
	if got := node0.Stats().Peer.RepairsReceived; got == 0 {
		t.Error("node 0 counts no repair received")
	}
	if st := node0.StoreStats(); st.BlocksRepaired == 0 {
		t.Errorf("store counters show no repair: %+v", st)
	}

	// Bounded shutdown with a store to flush: Stop must return promptly and
	// close the store exactly once.
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Stop with durable stores did not return in time")
	}

	// Durability: reopen every store from disk; every manifest must verify.
	for i := range c.Members {
		re, err := store.Open(c.spec.Members[i].Dir)
		if err != nil {
			t.Fatalf("node %d store not loadable after shutdown: %v", i, err)
		}
		dam := re.VerifyAll()
		if dam != nil {
			t.Errorf("node %d store has damage after repair+shutdown: %v", i, dam)
		}
		re.Close()
	}
}
