// Command durable-store walks through the on-disk AU store by itself, no
// network involved: ingest, silent bit rot, scrub detection, and a crash-safe
// repair from a second replica.
//
//	go run ./examples/durable-store
//
// The real node wires the same pieces to the audit protocol: run
// `lockss-node -data-dir ... -inject-damage ...` for the networked version
// of this walkthrough.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"lockss/internal/content"
	"lockss/internal/store"
)

func main() {
	log.SetFlags(0)
	root, err := os.MkdirTemp("", "lockss-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	spec := content.AUSpec{ID: 1, Name: "J. Irreproducible Results 2004", Size: 256 << 10, BlockSize: 32 << 10}

	// Two libraries ingest the same publication into their own stores.
	libA, err := store.Open(root + "/library-a")
	if err != nil {
		log.Fatal(err)
	}
	defer libA.Close()
	libB, err := store.Open(root + "/library-b")
	if err != nil {
		log.Fatal(err)
	}
	defer libB.Close()
	a, err := libA.CreateFrom(spec, 1, content.PublisherReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	b, err := libB.CreateFrom(spec, 2, content.PublisherReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %q: %d blocks of %d bytes at two libraries\n",
		spec.Name, spec.Blocks(), spec.BlockSize)

	// Decades pass (sped up): library A's disk rots silently at block 3 —
	// real bits flip in blocks.dat, the manifest still vouches for the old
	// content, and no damage mark exists anywhere.
	if err := libA.InjectDamage(spec.ID, 3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("silent bit rot injected at block 3; replica believes damaged=%v\n", a.Damaged())

	// The background scrubber finds it the honest way: paced sequential
	// verification against the manifest digests.
	libA.StartScrub(store.ScrubConfig{
		Pace: time.Millisecond,
		OnDamage: func(au content.AUID, block int) {
			fmt.Printf("scrub: AU %d block %d does not match its manifest\n", au, block)
		},
	})
	for !a.Damaged() {
		time.Sleep(5 * time.Millisecond)
	}
	libA.StopScrub()
	st := libA.Stats()
	fmt.Printf("scrub stats: scanned=%d verified=%d damaged=%d\n",
		st.BlocksScanned, st.BlocksVerified, st.BlocksDamaged)

	// In the real system an opinion poll now confirms the damage against
	// the other libraries' votes and fetches the block from a voter in the
	// landslide majority. Here we play both sides by hand.
	data, err := b.RepairBlock(3)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.ApplyRepair(3, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair applied; replica damaged=%v\n", a.Damaged())

	// The write path was crash-safe (block bytes fsynced before the
	// manifest replaced atomically), and the whole store verifies again.
	dam := libA.VerifyAll()
	if dam == nil {
		fmt.Println("library A verifies: every block matches its manifest again")
	} else {
		fmt.Printf("library A still damaged: %v\n", dam)
	}
}
