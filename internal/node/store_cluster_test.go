package node

import (
	"testing"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/store"
)

// The durable-storage acceptance test (a real cluster repairing silent
// on-disk rot) lives in internal/harness as TestClusterRepairsDurableStore,
// built on the harness's exported cluster helpers.

// TestStoreStatsWithoutStore: a storeless node reports zero store stats and
// stops cleanly (the store lifecycle hooks must be no-ops).
func TestStoreStatsWithoutStore(t *testing.T) {
	n, err := New(Config{
		ID:          1,
		Listen:      "127.0.0.1:0",
		AddressBook: map[ids.PeerID]string{2: "127.0.0.1:1"},
		Protocol:    demoProtocolConfig(),
		Costs:       effort.DemoCostModel(),
		MBF:         effort.DemoMBFParams(),
		Observer:    &testObserver{},
	})
	if err != nil {
		t.Fatal(err)
	}
	replica := content.NewRealReplica(content.AUSpec{ID: 1, Name: "x", Size: 1 << 10, BlockSize: 1 << 10}, 1)
	if err := n.AddAU(replica, []ids.PeerID{2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if st := n.StoreStats(); st != (store.Stats{}) {
		t.Errorf("storeless node reports store stats %+v", st)
	}
	n.Stop()
	_ = protocol.Outcome(0) // keep protocol import for the observer types
}
