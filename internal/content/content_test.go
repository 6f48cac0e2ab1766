package content

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"
	"testing/iotest"
	"testing/quick"

	"lockss/internal/prng"
)

func testSpec() AUSpec {
	return AUSpec{ID: 7, Name: "test", Size: 4096, BlockSize: 1024}
}

func TestBlocksCount(t *testing.T) {
	cases := []struct {
		size, block int64
		want        int
	}{
		{4096, 1024, 4},
		{4097, 1024, 5},
		{100, 1024, 1},
		{0, 1024, 1},
		{4096, 0, 1},
	}
	for _, c := range cases {
		s := AUSpec{Size: c.size, BlockSize: c.block}
		if got := s.Blocks(); got != c.want {
			t.Errorf("Blocks(%d/%d) = %d, want %d", c.size, c.block, got, c.want)
		}
	}
}

func TestSimReplicaDamageRepair(t *testing.T) {
	r := NewSimReplica(testSpec(), 1)
	if r.Damaged() {
		t.Fatal("fresh replica damaged")
	}
	if r.Damage(99) {
		t.Error("out-of-range damage accepted")
	}
	if !r.Damage(2) {
		t.Fatal("damage failed")
	}
	if !r.Damaged() || len(r.Snapshot()) != 1 || r.Snapshot()[0].Block != 2 {
		t.Fatalf("snapshot wrong: %v", r.Snapshot())
	}
	// Repair from a correct peer replica.
	good := NewSimReplica(testSpec(), 2)
	data, err := good.RepairBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyRepair(2, data); err != nil {
		t.Fatal(err)
	}
	if r.Damaged() {
		t.Error("repair did not clear damage")
	}
}

func TestSimReplicaCorruptRepairPropagates(t *testing.T) {
	a := NewSimReplica(testSpec(), 1)
	b := NewSimReplica(testSpec(), 2)
	b.Damage(3)
	data, _ := b.RepairBlock(3)
	if err := a.ApplyRepair(3, data); err != nil {
		t.Fatal(err)
	}
	if !a.Damaged() {
		t.Error("corrupt repair should leave the recipient damaged")
	}
	// And the two corrupt replicas agree with each other at that block.
	if a.Snapshot()[0].Mark != b.Snapshot()[0].Mark {
		t.Error("propagated corruption should carry the same mark")
	}
}

func TestDistinctSaltsDistinctCorruption(t *testing.T) {
	a := NewSimReplica(testSpec(), 1)
	b := NewSimReplica(testSpec(), 2)
	a.Damage(0)
	b.Damage(0)
	if a.Snapshot()[0].Mark == b.Snapshot()[0].Mark {
		t.Error("independent corruption events share a mark")
	}
}

func TestSimVoteHashesChangeWithDamage(t *testing.T) {
	r := NewSimReplica(testSpec(), 1)
	nonce := []byte("nonce")
	before := r.VoteHashes(nonce)
	if len(before) != 4 {
		t.Fatalf("hash count %d", len(before))
	}
	r.Damage(1)
	after := r.VoteHashes(nonce)
	if before[0] != after[0] {
		t.Error("hash before the damaged block changed")
	}
	for i := 1; i < 4; i++ {
		if before[i] == after[i] {
			t.Errorf("running hash %d unchanged after damage at 1", i)
		}
	}
}

func TestVoteHashesNonceDependence(t *testing.T) {
	r := NewSimReplica(testSpec(), 1)
	a := r.VoteHashes([]byte("n1"))
	b := r.VoteHashes([]byte("n2"))
	if a[0] == b[0] {
		t.Error("different nonces produce identical hashes")
	}
}

func TestRealReplicaBasics(t *testing.T) {
	r := NewRealReplica(testSpec(), 1)
	if r.Damaged() {
		t.Fatal("fresh real replica damaged")
	}
	q := NewRealReplica(testSpec(), 2)
	// Same publisher content regardless of salt.
	if !bytes.Equal(mustRepair(t, r, 0), mustRepair(t, q, 0)) {
		t.Fatal("publisher content differs between replicas")
	}
	if !r.Damage(1) {
		t.Fatal("damage failed")
	}
	if !r.Damaged() {
		t.Fatal("damage not detected")
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Block != 1 {
		t.Fatalf("snapshot %v", snap)
	}
	// Repair from the intact replica.
	if err := r.ApplyRepair(1, mustRepair(t, q, 1)); err != nil {
		t.Fatal(err)
	}
	if r.Damaged() {
		t.Error("repair did not restore content")
	}
	// Wrong-size repair rejected.
	if err := r.ApplyRepair(1, []byte("short")); err == nil {
		t.Error("short repair accepted")
	}
}

func mustRepair(t *testing.T, r Replica, block int) []byte {
	t.Helper()
	data, err := r.RepairBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRealReplicaCorruptRepairDetected(t *testing.T) {
	a := NewRealReplica(testSpec(), 1)
	b := NewRealReplica(testSpec(), 2)
	b.Damage(2)
	if err := a.ApplyRepair(2, mustRepair(t, b, 2)); err != nil {
		t.Fatal(err)
	}
	if !a.Damaged() {
		t.Error("corrupt real repair should leave recipient damaged")
	}
}

func TestRealDamageDistinctContent(t *testing.T) {
	a := NewRealReplica(testSpec(), 1)
	b := NewRealReplica(testSpec(), 2)
	a.Damage(0)
	b.Damage(0)
	if bytes.Equal(mustRepair(t, a, 0), mustRepair(t, b, 0)) {
		t.Error("independent real corruption produced identical bytes")
	}
}

// TestRealSimHashEquivalencePattern: under identical damage patterns, the
// real and symbolic replicas produce the same agreement/disagreement
// structure (which running hashes match between two peers), even though the
// hash values themselves differ.
func TestRealSimHashEquivalencePattern(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rnd := prng.New(seed)
		spec := testSpec()
		nonce := []byte("n")

		simA, simB := NewSimReplica(spec, 1), NewSimReplica(spec, 2)
		realA, realB := NewRealReplica(spec, 1), NewRealReplica(spec, 2)

		// Apply the same random damage to both representations.
		for i := 0; i < 3; i++ {
			if rnd.Bool(0.5) {
				b := rnd.Intn(spec.Blocks())
				simA.Damage(b)
				realA.Damage(b)
			}
			if rnd.Bool(0.5) {
				b := rnd.Intn(spec.Blocks())
				simB.Damage(b)
				realB.Damage(b)
			}
		}
		simHA, simHB := simA.VoteHashes(nonce), simB.VoteHashes(nonce)
		realHA, realHB := realA.VoteHashes(nonce), realB.VoteHashes(nonce)
		for i := range simHA {
			simAgree := simHA[i] == simHB[i]
			realAgree := realHA[i] == realHB[i]
			if simAgree != realAgree {
				t.Logf("block %d: sim agree=%v real agree=%v", i, simAgree, realAgree)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestRepairBlockOutOfRange(t *testing.T) {
	for _, r := range []Replica{NewSimReplica(testSpec(), 1), NewRealReplica(testSpec(), 1)} {
		if _, err := r.RepairBlock(-1); err == nil {
			t.Errorf("%T: negative block accepted", r)
		}
		if _, err := r.RepairBlock(4); err == nil {
			t.Errorf("%T: out-of-range block accepted", r)
		}
		if err := r.ApplyRepair(9, nil); err == nil {
			t.Errorf("%T: out-of-range repair accepted", r)
		}
	}
}

// TestSimReplicaApplyRepairMalformed exercises the symbolic repair payload
// validation: wrong sizes, wrong tags, and payloads minted for a different
// AU or block must all be rejected without mutating the replica.
func TestSimReplicaApplyRepairMalformed(t *testing.T) {
	r := NewSimReplica(testSpec(), 1)
	r.Damage(2)
	gen := r.Generation()
	bad := [][]byte{
		nil,                      // empty
		[]byte("short"),          // wrong size entirely
		make([]byte, 12),         // one byte short of a correct token
		make([]byte, 14),         // one byte long of a correct token
		make([]byte, 20),         // one byte short of a damage token
		make([]byte, 22),         // one byte long of a damage token
		damagedPayload(99, 2, 5), // damage token for another AU
		damagedPayload(7, 3, 5),  // damage token for another block
		correctPayload(99, 2),    // correct token for another AU
		correctPayload(7, 1),     // correct token for another block
	}
	for _, data := range bad {
		if err := r.ApplyRepair(2, data); err == nil {
			t.Errorf("malformed payload %q accepted", data)
		}
	}
	if r.Generation() != gen {
		t.Error("rejected repairs mutated the replica")
	}
	if !r.Damaged() {
		t.Error("rejected repairs cleared the damage mark")
	}
	// The matching token still heals.
	if err := r.ApplyRepair(2, correctPayload(7, 2)); err != nil {
		t.Fatal(err)
	}
	if r.Damaged() {
		t.Error("valid repair did not heal")
	}
}

// TestSimReplicaRepairRoundTripErrors covers the RepairBlock/ApplyRepair
// error paths on block indices outside the AU.
func TestSimReplicaRepairRoundTripErrors(t *testing.T) {
	r := NewSimReplica(testSpec(), 1)
	for _, i := range []int{-1, 4, 1 << 20} {
		if _, err := r.RepairBlock(i); err == nil {
			t.Errorf("RepairBlock(%d) accepted", i)
		}
		if err := r.ApplyRepair(i, correctPayload(7, 0)); err == nil {
			t.Errorf("ApplyRepair(%d) accepted", i)
		}
	}
}

func TestGenerationAdvancesOnMutation(t *testing.T) {
	for _, r := range []Replica{NewSimReplica(testSpec(), 1), NewRealReplica(testSpec(), 1)} {
		g0 := r.Generation()
		r.Damage(1)
		g1 := r.Generation()
		if g1 == g0 {
			t.Errorf("%T: Damage did not advance generation", r)
		}
		q := NewRealReplica(testSpec(), 2)
		var data []byte
		if _, ok := r.(*SimReplica); ok {
			data = correctPayload(7, 1)
		} else {
			data = mustRepair(t, q, 1)
		}
		if err := r.ApplyRepair(1, data); err != nil {
			t.Fatal(err)
		}
		if r.Generation() == g1 {
			t.Errorf("%T: ApplyRepair did not advance generation", r)
		}
	}
}

func TestRedamageFreshMark(t *testing.T) {
	r := NewSimReplica(testSpec(), 1)
	r.Damage(0)
	m1 := r.Snapshot()[0].Mark
	r.Damage(0)
	m2 := r.Snapshot()[0].Mark
	if m1 == m2 {
		t.Error("re-damage should produce fresh corruption")
	}
}

func TestLastPartialBlock(t *testing.T) {
	spec := AUSpec{ID: 1, Name: "partial", Size: 2500, BlockSize: 1024}
	r := NewRealReplica(spec, 1)
	if spec.Blocks() != 3 {
		t.Fatalf("blocks = %d", spec.Blocks())
	}
	data := mustRepair(t, r, 2)
	if len(data) != 2500-2048 {
		t.Errorf("partial block size %d", len(data))
	}
	r.Damage(2)
	q := NewRealReplica(spec, 2)
	if err := r.ApplyRepair(2, mustRepair(t, q, 2)); err != nil {
		t.Fatal(err)
	}
	if r.Damaged() {
		t.Error("partial block repair failed")
	}
}

// TestPublisherReaderMatchesBytes: the streaming publisher source must
// produce the exact bytes PublisherBytes materializes — including sizes that
// end mid-way through a keystream block — under any read granularity.
func TestPublisherReaderMatchesBytes(t *testing.T) {
	for _, size := range []int64{0, 1, 31, 32, 33, 4096, 100_003} {
		spec := AUSpec{ID: 12, Name: "stream", Size: size, BlockSize: 1024}
		want := PublisherBytes(spec)
		var got bytes.Buffer
		if _, err := got.ReadFrom(PublisherReader(spec)); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("size %d: streamed bytes differ from PublisherBytes", size)
		}
		// Byte-at-a-time reads must agree too.
		r := PublisherReader(spec)
		one := make([]byte, 1)
		for i := int64(0); i < size; i++ {
			if _, err := r.Read(one); err != nil {
				t.Fatalf("size %d byte %d: %v", size, i, err)
			}
			if one[0] != want[i] {
				t.Fatalf("size %d: byte %d differs under 1-byte reads", size, i)
			}
		}
		if _, err := r.Read(one); err == nil {
			t.Fatalf("size %d: no EOF past the end", size)
		}
	}
}

// TestPublisherContentPinned pins the publisher's bytes to known answers —
// AES-256-CTR of zeros under the SHA-256 of the 8-byte big-endian AU ID
// seed, counter block 0 at byte 0 — computed independently of this package
// (openssl enc -aes-256-ctr). Bytes 0-31 pin the key and the counter's start;
// the mid-AU block, read through canonicalBlock, pins the seek, once at a
// 16-byte boundary and once 8 bytes into a counter block. A change to the
// derivation changes every stored AU and recorded trace, so it must be a
// visible edit here.
func TestPublisherContentPinned(t *testing.T) {
	for _, c := range []struct {
		spec          AUSpec
		block         int
		head, block32 string
	}{
		{AUSpec{ID: 7, Name: "test", Size: 4096, BlockSize: 1024}, 2,
			"da61fee2c7a71695ec2608447af5e54b6851198a305e110a988a3605e6a43184",
			"f1a06dda748adc876bce2b1323ebd2c8f5492df9226e1d2b3962b6ed7fa87feb"},
		{AUSpec{ID: 12, Name: "stream", Size: 100_003, BlockSize: 1000}, 37,
			"a834e6961c236c43d1e2fd8ee18473aeee9c7bbc56e7b4c4389dd581e8c8902a",
			"e18682d165af3cfaa3ccf14d0a0486dc450fc7fa67600c6abe55a7740d946125"},
	} {
		if got := hex.EncodeToString(PublisherBytes(c.spec)[:32]); got != c.head {
			t.Errorf("%v bytes 0-31 = %s, want %s", c.spec, got, c.head)
		}
		r := &RealReplica{spec: c.spec}
		if got := hex.EncodeToString(r.canonicalBlock(c.block)[:32]); got != c.block32 {
			t.Errorf("%v block %d = %s..., want %s...", c.spec, c.block, got, c.block32)
		}
	}
}

// FuzzPublisherSeek holds the four views of the keystream to one another:
// PublisherReader under any read chunking, PublisherBytes, and the
// concatenated canonicalBlocks of any block geometry (BlockSize 0 and sizes
// that straddle counter blocks included) are the same bytes; CorruptBytes is
// deterministic, a prefix of itself at any length, and differs by mark and
// by block.
func FuzzPublisherSeek(f *testing.F) {
	f.Add(uint32(7), uint16(4096), uint16(1024), uint8(0), uint64(1))
	f.Add(uint32(12), uint16(10_003), uint16(1000), uint8(7), uint64(1<<20|3))
	f.Add(uint32(1), uint16(33), uint16(0), uint8(1), uint64(9))
	f.Add(uint32(3), uint16(0), uint16(17), uint8(15), uint64(0))
	f.Fuzz(func(t *testing.T, id uint32, size, blockSize uint16, chunk uint8, mark uint64) {
		spec := AUSpec{ID: AUID(id), Size: int64(size), BlockSize: int64(blockSize)}
		want := PublisherBytes(spec)
		if int64(len(want)) != spec.Size {
			t.Fatalf("PublisherBytes(%v) has %d bytes", spec, len(want))
		}
		for name, src := range map[string]io.Reader{
			"one-byte": iotest.OneByteReader(PublisherReader(spec)),
			"half":     iotest.HalfReader(PublisherReader(spec)),
			"chunked":  PublisherReader(spec),
		} {
			var got []byte
			buf := make([]byte, int(chunk)+1)
			for {
				n, err := src.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("%s read: %v", name, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: %s reads through a %d-byte buffer differ from PublisherBytes", spec, name, len(buf))
			}
		}
		r := &RealReplica{spec: spec}
		var blocks []byte
		for i := range spec.Blocks() {
			blocks = append(blocks, r.canonicalBlock(i)...)
		}
		if !bytes.Equal(blocks, want) {
			t.Fatalf("%v: concatenated canonical blocks differ from PublisherBytes", spec)
		}

		n := int(blockSize%512) + 16
		block := int(size)
		c := CorruptBytes(Mark(mark), block, n)
		if !bytes.Equal(c, CorruptBytes(Mark(mark), block, n)) {
			t.Fatal("CorruptBytes is not deterministic")
		}
		if !bytes.Equal(c[:int(chunk)%n], CorruptBytes(Mark(mark), block, int(chunk)%n)) {
			t.Fatal("CorruptBytes is not a prefix of itself")
		}
		if bytes.Equal(c, CorruptBytes(Mark(mark+1), block, n)) {
			t.Fatalf("marks %d and %d corrupt block %d identically", mark, mark+1, block)
		}
		if bytes.Equal(c, CorruptBytes(Mark(mark), block+1, n)) {
			t.Fatalf("mark %d corrupts blocks %d and %d identically", mark, block, block+1)
		}
	})
}
