package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/store"
	"lockss/internal/world"
)

// okFlags is a baseline that passes validation; cases tweak one field.
func okFlags() nodeFlags {
	return nodeFlags{
		id:        1,
		sendQ:     128,
		maxIn:     256,
		maxInIP:   64,
		scrubPace: time.Second,
		scrubWork: 1,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*nodeFlags)
		wantErr string // substring; empty = valid
	}{
		{"defaults", func(f *nodeFlags) {}, ""},
		{"missing id", func(f *nodeFlags) { f.id = 0 }, "-id is required"},
		{"zero sendqueue", func(f *nodeFlags) { f.sendQ = 0 }, "-sendqueue"},
		{"negative sendqueue", func(f *nodeFlags) { f.sendQ = -5 }, "-sendqueue"},
		{"zero max-inbound", func(f *nodeFlags) { f.maxIn = 0 }, "-max-inbound"},
		{"zero max-inbound-addr", func(f *nodeFlags) { f.maxInIP = 0 }, "-max-inbound-addr"},
		{"negative scrub pace", func(f *nodeFlags) { f.scrubPace = -time.Second }, "-scrub-pace"},
		{"zero scrub pace ok", func(f *nodeFlags) { f.scrubPace = 0 }, ""},
		{"zero scrub workers", func(f *nodeFlags) { f.scrubWork = 0 }, "-scrub-workers"},
		{"many scrub workers ok", func(f *nodeFlags) { f.scrubWork = 8 }, ""},
		{"negative scrub bandwidth", func(f *nodeFlags) { f.scrubBW = -1 }, "-scrub-bandwidth"},
		{"zero scrub bandwidth ok", func(f *nodeFlags) { f.scrubBW = 0 }, ""},
		{"inject without data-dir", func(f *nodeFlags) { f.inject = "1:2" }, "-inject-damage requires -data-dir"},
		{"inject with data-dir", func(f *nodeFlags) { f.inject = "1:2"; f.dataDir = "/tmp/x" }, ""},
		{"verify without data-dir", func(f *nodeFlags) { f.verify = true }, "-verify-store requires -data-dir"},
		// Offline verify mode needs no identity and skips node-flag rules.
		{"verify mode skips node rules", func(f *nodeFlags) {
			f.verify = true
			f.dataDir = "/tmp/x"
			f.id = 0
			f.sendQ = 0
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := okFlags()
			tc.mutate(&f)
			err := f.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParsePeers(t *testing.T) {
	book, err := parsePeers("1=localhost:7421,2=localhost:7422")
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 2 || book[1] != "localhost:7421" || book[2] != "localhost:7422" {
		t.Fatalf("parsePeers = %v", book)
	}
	if _, err := parsePeers("nonsense"); err == nil {
		t.Error("parsePeers accepted a malformed entry")
	}
	if _, err := parsePeers("x=localhost:1"); err == nil {
		t.Error("parsePeers accepted a non-numeric id")
	}
}

// TestTraceHeaderRecordsTheSaltInUse: on every path that builds replicas —
// in memory, synthetic units ingested into a new store, files ingested into a
// new store — a new replica's salt is world.ReplicaSalt(id, AU), and the trace
// header records the salt the replica carries. A store ingested under another
// salt keeps it (the manifest is authoritative) and the header says so.
func TestTraceHeaderRecordsTheSaltInUse(t *testing.T) {
	const id, auSize, blockSize = 5, 8 << 10, 4 << 10
	filesDir := t.TempDir()
	for _, name := range []string{"a.dat", "b.dat"} {
		if err := os.WriteFile(filepath.Join(filesDir, name), make([]byte, auSize), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldDir := t.TempDir()
	old, err := store.Open(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := content.DemoAUSpec(0, auSize, blockSize)
	if _, err := old.CreateFrom(spec, 777, content.PublisherReader(spec)); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, dir string
		kept      uint64 // the salt a reopened store kept; 0 = a new replica
	}{
		{"in-memory", "", 0},
		{"synthetic store", t.TempDir(), 0},
		{"ingested files", filesDir, 0},
		{"reopened store", oldDir, 777},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, replicas, err := buildReplicas(tc.dir, id, 2, auSize, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			if st != nil {
				defer st.Close()
			}
			if len(replicas) == 0 {
				t.Fatal("no replicas built")
			}
			hdrs := auHeaders(replicas, []ids.PeerID{2, 3})
			for i, rep := range replicas {
				au, want := rep.Spec().ID, tc.kept
				if want == 0 {
					want = world.ReplicaSalt(id, au)
				}
				if rep.Salt() != want {
					t.Errorf("AU %d replica salt = %#x, want %#x", au, rep.Salt(), want)
				}
				if hdrs[i].ID != au || hdrs[i].Salt != rep.Salt() {
					t.Errorf("AU %d header records salt %#x (AU %d), replica carries %#x", au, hdrs[i].Salt, hdrs[i].ID, rep.Salt())
				}
			}
		})
	}
}
