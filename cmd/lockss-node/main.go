// Command lockss-node runs a real networked LOCKSS peer: the audit-and-
// repair protocol over encrypted TCP sessions with real content hashing and
// real memory-bound proofs of effort.
//
// A three-node demo network on one machine, each peer preserving its AUs in
// a durable on-disk store:
//
//	lockss-node -id 1 -listen :7421 -peers 2=localhost:7422,3=localhost:7423 -interval 10s -data-dir /tmp/n1
//	lockss-node -id 2 -listen :7422 -peers 1=localhost:7421,3=localhost:7423 -interval 10s -data-dir /tmp/n2
//	lockss-node -id 3 -listen :7423 -peers 1=localhost:7421,2=localhost:7422 -interval 10s -data-dir /tmp/n3
//
// With -data-dir, regular files placed at the top level of the directory are
// ingested as archival units (every peer must hold the same files under the
// same names); without any, the node synthesizes -aus units of -ausize bytes
// from the shared publisher stream. Either way the content lives in
// data-dir/au-*/blocks.dat behind a checksummed manifest, a background
// scrubber verifies it block by block (pace set by -scrub-pace), and repairs
// negotiated by polls are written back to disk crash-safely. Without
// -data-dir the node falls back to in-memory synthetic replicas.
//
// Damage demos: -rot corrupts one random block at startup through the
// replica (marked damage); -inject-damage AU:BLOCK flips real bits on disk
// behind the store's back — silent corruption the scrubber then has to find,
// raise the AU's audit priority for, and the next poll repairs.
// -verify-store checks every block of every AU against its manifest and
// exits (0 = everything verifies).
//
// Observability: -stats-interval prints a one-line snapshot (polls,
// transport counters, store scrub/damage/repair counters) on a cadence, so
// long-running demos are observable before their exit statistics. -admin
// embeds an HTTP control plane (internal/admin) serving Prometheus-text
// /metrics (counters, gauges and latency histograms), /healthz, JSON /aus
// and /peers inspection, the flight recorder's GET /polls (poll-lifecycle
// spans, filterable by ?au= and ?outcome=) and GET /flightrecorder (raw
// event ring), and POST /drain for a graceful drain: the node stops calling
// polls, finishes in-flight ones, flushes its store, prints exit statistics
// and exits 0.
//
// Reconfiguration without restart: POST /reload on the admin API sets any
// subset of the runtime knobs (-scrub-pace, -scrub-bandwidth,
// -stats-interval) to new values, e.g.
// {"scrub_pace":"100ms","scrub_bandwidth":1048576}. SIGHUP restores the
// values the node started with, undoing any /reload. Flags are parsed once,
// at startup, so SIGHUP cannot pick up an edited flag file; that takes a
// restart.
//
// Transport knobs (see internal/node/transport.go): -sendqueue bounds each
// peer's outbound message queue — when a stalled or dead peer's queue fills,
// the oldest queued message is dropped rather than blocking the node (the
// protocol's timeouts own reliability); -max-inbound caps concurrent inbound
// sessions across all remotes, and -max-inbound-addr caps them per remote
// address (its default of 64 accommodates single-machine clusters, where
// every peer shares one IP), refusing the excess at accept. On shutdown
// the node reports its transport counters (sends, drops, dials, redials,
// queue high-water, inbound admission) alongside the protocol statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lockss/internal/admin"
	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/store"
	"lockss/internal/trace"
	"lockss/internal/world"
)

// version labels the lockss_build_info metric; override at build time with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/lockss-node
var version = "dev"

// logObserver prints protocol milestones.
type logObserver struct{}

func (o logObserver) PollConcluded(p ids.PeerID, au content.AUID, pollID uint64, out protocol.Outcome, started, now sched.Time) {
	log.Printf("poll on AU %d concluded: %v", au, out)
}
func (o logObserver) Alarm(p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	log.Printf("ALARM: inconclusive poll on AU %d — operator attention required", au)
}
func (o logObserver) RepairApplied(p ids.PeerID, au content.AUID, pollID uint64, block int, now sched.Time) {
	log.Printf("repaired AU %d block %d", au, block)
}
func (o logObserver) VoteSupplied(v, p ids.PeerID, au content.AUID, pollID uint64, now sched.Time) {
	log.Printf("supplied vote on AU %d to %v", au, p)
}

func parsePeers(s string) (map[ids.PeerID]string, error) {
	book := make(map[ids.PeerID]string)
	if s == "" {
		return book, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		book[ids.PeerID(id)] = kv[1]
	}
	return book, nil
}

// parseInjection parses -inject-damage's AU:BLOCK form (BLOCK may be "rand").
func parseInjection(s string) (content.AUID, int, error) {
	kv := strings.SplitN(s, ":", 2)
	if len(kv) != 2 {
		return 0, 0, fmt.Errorf("bad -inject-damage %q (want AU:BLOCK or AU:rand)", s)
	}
	au, err := strconv.ParseUint(kv[0], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -inject-damage AU %q: %v", kv[0], err)
	}
	if kv[1] == "rand" {
		return content.AUID(au), -1, nil
	}
	block, err := strconv.Atoi(kv[1])
	if err != nil || block < 0 {
		return 0, 0, fmt.Errorf("bad -inject-damage block %q", kv[1])
	}
	return content.AUID(au), block, nil
}

// saltedReplica is a preserved AU that can say which salt it carries, so a
// trace header records the salt actually in use.
type saltedReplica interface {
	content.Replica
	Salt() uint64
}

// buildReplicas returns the node's replicas in AU order: store-backed when
// dataDir is set (with the store), in-memory synthetic otherwise.
func buildReplicas(dataDir string, id ids.PeerID, aus int, auSize, blockSize int64) (*store.Store, []saltedReplica, error) {
	if dataDir != "" {
		return openStoreAUs(dataDir, id, aus, auSize, blockSize)
	}
	replicas := make([]saltedReplica, aus)
	for i := range replicas {
		spec := content.DemoAUSpec(i, auSize, blockSize)
		replicas[i] = content.NewRealReplica(spec, world.ReplicaSalt(id, spec.ID))
	}
	return nil, replicas, nil
}

// auHeaders describes the replicas' bootstrap state for a trace header.
func auHeaders(replicas []saltedReplica, refs []ids.PeerID) []trace.AUHeader {
	grades := make([]trace.GradeRef, 0, len(refs))
	for _, r := range refs {
		grades = append(grades, trace.GradeRef{Peer: r, Grade: uint8(reputation.Even)})
	}
	hdrs := make([]trace.AUHeader, 0, len(replicas))
	for _, rep := range replicas {
		spec := rep.Spec()
		hdrs = append(hdrs, trace.AUHeader{
			ID:        spec.ID,
			Name:      spec.Name,
			Size:      spec.Size,
			BlockSize: spec.BlockSize,
			// The salt only individualizes corruption marks; replayed
			// corrupt bytes differ from the recorded node's either way
			// (see the trace package's determinism contract).
			Salt:   rep.Salt(),
			Refs:   refs,
			Grades: grades,
		})
	}
	return hdrs
}

// openStoreAUs opens (or populates) the durable store under dataDir and
// returns it with its replicas in AU order. Top-level regular files are
// ingested as AUs in name order — deterministic, so peers holding the same
// files agree on AU identities. A store holding nothing and a directory
// holding no files fall back to synthesizing aus publisher units of auSize
// bytes, durably ingested on first run and reloaded on later ones.
func openStoreAUs(dataDir string, id ids.PeerID, aus int, auSize, blockSize int64) (*store.Store, []saltedReplica, error) {
	st, err := store.Open(dataDir)
	if err != nil {
		return nil, nil, err
	}
	// Name -> AU id assignments must be stable across restarts and equal
	// across peers: names already in the store keep their stored ids, new
	// names are numbered past the highest existing id in sorted order. Two
	// peers agree as long as they grow their data dirs with the same file
	// sets in the same order (initially: the same files).
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	have := make(map[string]bool)
	nextID := content.AUID(1)
	for _, r := range st.Replicas() {
		have[r.Spec().Name] = true
		if id := r.Spec().ID; id >= nextID {
			nextID = id + 1
		}
	}
	switch {
	case len(files) > 0:
		for _, name := range files {
			if have[name] {
				continue // already preserved; the store copy is authoritative
			}
			f, err := os.Open(filepath.Join(dataDir, name))
			if err != nil {
				st.Close()
				return nil, nil, err
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				st.Close()
				return nil, nil, err
			}
			spec := content.AUSpec{
				ID:        nextID,
				Name:      name,
				Size:      fi.Size(),
				BlockSize: blockSize,
			}
			// Stream the file into the store block by block — an archive-sized
			// AU never sits in memory on either side of the copy.
			_, err = st.CreateFrom(spec, world.ReplicaSalt(id, spec.ID), f)
			f.Close()
			if err != nil {
				st.Close()
				return nil, nil, err
			}
			nextID++
			log.Printf("ingested %s as AU %d (%d bytes, %d blocks)", name, spec.ID, spec.Size, spec.Blocks())
		}
	case len(st.AUs()) == 0:
		for i := 0; i < aus; i++ {
			spec := content.DemoAUSpec(i, auSize, blockSize)
			if _, err := st.CreateFrom(spec, world.ReplicaSalt(id, spec.ID), content.PublisherReader(spec)); err != nil {
				st.Close()
				return nil, nil, err
			}
			log.Printf("ingested synthetic %s as AU %d (%d bytes)", spec.Name, spec.ID, spec.Size)
		}
	}
	var replicas []saltedReplica
	for _, r := range st.Replicas() {
		replicas = append(replicas, r)
	}
	return st, replicas, nil
}

// verifyStore is the -verify-store mode: check every block of every AU
// against its manifest and report. Read errors are part of the report, not
// an early exit — one unreadable block must not mask rot found elsewhere.
// Exit 0 only if the store loads and every block verifies.
func verifyStore(dataDir string) int {
	st, err := store.Open(dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockss-node: %v\n", err)
		return 1
	}
	defer st.Close()
	dam := st.VerifyAll()
	for _, d := range dam {
		if d.Unreadable {
			fmt.Printf("AU %d block %d UNREADABLE (marked=%v): %v\n", d.AU, d.Block, d.Marked, d.Err)
			continue
		}
		fmt.Printf("AU %d block %d DAMAGED (marked=%v)\n", d.AU, d.Block, d.Marked)
	}
	total := 0
	for _, r := range st.Replicas() {
		total += r.Spec().Blocks()
	}
	if len(dam) > 0 {
		fmt.Printf("store %s: %d AUs, %d/%d blocks verify\n", dataDir, len(st.AUs()), total-len(dam), total)
		return 1
	}
	fmt.Printf("store %s: %d AUs, all %d blocks verify\n", dataDir, len(st.AUs()), total)
	return 0
}

// nodeFlags collects the flag values that validation rules span, so the
// rules can be unit-tested without running main.
type nodeFlags struct {
	id        uint
	sendQ     int
	maxIn     int
	maxInIP   int
	scrubPace time.Duration
	scrubWork int
	scrubBW   int64
	dataDir   string
	inject    string
	verify    bool
}

// validate applies every up-front flag rule. Errors are returned (not
// printed) so main can exit 2 with a single clear message and tests can
// assert on the rule that fired. -verify-store is an offline mode: it needs
// only a store directory, not an identity.
func (f nodeFlags) validate() error {
	if f.verify {
		if f.dataDir == "" {
			return fmt.Errorf("-verify-store requires -data-dir")
		}
		return nil
	}
	if f.id == 0 {
		return fmt.Errorf("-id is required")
	}
	if f.sendQ < 1 {
		return fmt.Errorf("-sendqueue must be >= 1 (got %d)", f.sendQ)
	}
	if f.maxIn < 1 {
		return fmt.Errorf("-max-inbound must be >= 1 (got %d)", f.maxIn)
	}
	if f.maxInIP < 1 {
		return fmt.Errorf("-max-inbound-addr must be >= 1 (got %d)", f.maxInIP)
	}
	if f.scrubPace < 0 {
		return fmt.Errorf("-scrub-pace must be >= 0 (got %v)", f.scrubPace)
	}
	if f.scrubWork < 1 {
		return fmt.Errorf("-scrub-workers must be >= 1 (got %d)", f.scrubWork)
	}
	if f.scrubBW < 0 {
		return fmt.Errorf("-scrub-bandwidth must be >= 0 (got %d)", f.scrubBW)
	}
	if f.inject != "" && f.dataDir == "" {
		return fmt.Errorf("-inject-damage requires -data-dir")
	}
	return nil
}

func main() {
	var (
		id        = flag.Uint("id", 0, "this peer's numeric identity (required)")
		listen    = flag.String("listen", ":7421", "TCP listen address")
		adminAddr = flag.String("admin", "", "admin HTTP listen address for /metrics, /healthz, /aus, /peers, /drain (empty = disabled)")
		peers     = flag.String("peers", "", "address book: id=host:port,id=host:port,...")
		aus       = flag.Int("aus", 2, "archival units to preserve (when not ingesting files)")
		auSize    = flag.Int64("ausize", 1<<20, "bytes per synthetic archival unit")
		interval  = flag.Duration("interval", 30*time.Second, "poll interval; the paper's protocol runs compressed to it")
		rot       = flag.Bool("rot", false, "corrupt one random block at startup (marked damage)")
		verbose   = flag.Bool("v", false, "log every vote supplied")
		sendQ     = flag.Int("sendqueue", 128, "outbound message queue depth per peer (full queue drops oldest)")
		maxIn     = flag.Int("max-inbound", 256, "max concurrent inbound sessions")
		maxInIP   = flag.Int("max-inbound-addr", 64, "max concurrent inbound sessions per remote address (raise when many peers share one IP)")

		dataDir   = flag.String("data-dir", "", "durable AU store root; top-level files are ingested as AUs (empty = in-memory replicas)")
		inject    = flag.String("inject-damage", "", "flip bits on disk in AU:BLOCK (or AU:rand) at startup; requires -data-dir")
		verify    = flag.Bool("verify-store", false, "verify every block in -data-dir against its manifest and exit")
		scrubPace = flag.Duration("scrub-pace", time.Second, "pause between background scrub block verifications")
		scrubWork = flag.Int("scrub-workers", 1, "concurrent scrub workers sharding the store's AUs")
		scrubBW   = flag.Int64("scrub-bandwidth", 0, "total scrub read budget in bytes/second across all workers (0 = unlimited)")
		statsIvl  = flag.Duration("stats-interval", 0, "print a one-line stats snapshot this often (0 = only at exit)")
		record    = flag.String("record", "", "record this node's protocol event stream to a trace.jsonl for offline replay (lockss-replay)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("lockss-node[%d] ", *id))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	nf := nodeFlags{
		id: *id, sendQ: *sendQ, maxIn: *maxIn, maxInIP: *maxInIP,
		scrubPace: *scrubPace, scrubWork: *scrubWork, scrubBW: *scrubBW,
		dataDir: *dataDir, inject: *inject, verify: *verify,
	}
	if err := nf.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "lockss-node: %v\n", err)
		os.Exit(2)
	}
	if *verify {
		os.Exit(verifyStore(*dataDir))
	}
	book, err := parsePeers(*peers)
	if err != nil {
		log.Fatal(err)
	}

	// Small networks: size the poll to the population. Two peers is the
	// floor: the documented three-node demo gives each member a two-entry
	// address book.
	n := len(book)
	if n < 2 {
		log.Fatalf("need at least 2 peers in the address book, have %d", n)
	}
	pcfg, err := protocol.DemoConfig(*interval, max(2, (n+1)/2), n, 64<<10)
	if err != nil {
		log.Fatal(err)
	}

	costs := effort.DefaultCostModel()
	costs.HashBytesPerSec = 512 << 20 // modern disk+hash

	var obs protocol.Observer = logObserver{}
	if !*verbose {
		obs = quietObserver{logObserver{}}
	}

	st, replicas, err := buildReplicas(*dataDir, ids.PeerID(*id), *aus, *auSize, pcfg.BlockSize)
	if err != nil {
		log.Fatal(err)
	}
	if st != nil {
		log.Printf("durable store %s: %d AUs", *dataDir, len(replicas))
	}

	// injected collects every block corrupted at startup (-inject-damage and
	// -rot) so a recorded trace can reproduce the starting damage state.
	var injected []trace.DamageRef
	if *inject != "" {
		au, block, err := parseInjection(*inject)
		if err != nil {
			log.Fatal(err)
		}
		r := st.Replica(au)
		if r == nil {
			log.Fatalf("-inject-damage: no AU %d in store", au)
		}
		if block < 0 {
			block = rand.Intn(r.Spec().Blocks())
		}
		if err := st.InjectDamage(au, block); err != nil {
			log.Fatal(err)
		}
		injected = append(injected, trace.DamageRef{AU: au, Block: block})
		log.Printf("injected silent bit rot on disk: AU %d block %d", au, block)
	}

	// Trace recording: the recorder taps the node's event stream and tees
	// into the observer chain, so one file captures both the inputs driving
	// the state machine and its observable outputs.
	var (
		rec     *trace.Recorder
		recFile *os.File
	)
	var tap protocol.EnvTap
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		recFile = f
		rec = trace.NewRecorder(f)
		tap = rec
		obs = protocol.TeeObserver(rec, obs)
	}

	nd, err := node.New(node.Config{
		ID:                ids.PeerID(*id),
		Listen:            *listen,
		AddressBook:       book,
		Protocol:          pcfg,
		Costs:             costs,
		MBF:               effort.DefaultMBFParams(),
		EffortUnit:        effort.DemoEffortUnit,
		Seed:              uint64(*id) * 7919,
		Observer:          obs,
		Tap:               tap,
		SendQueue:         *sendQ,
		MaxInbound:        *maxIn,
		MaxInboundPerAddr: *maxInIP,
		Store:             st,
		ScrubPace:         *scrubPace,
		ScrubWorkers:      *scrubWork,
		ScrubBandwidth:    *scrubBW,
		Logf: func(format string, args ...any) {
			if *verbose {
				log.Printf(format, args...)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Reference lists come from the address book in sorted order — a
	// deterministic order is what lets a recorded trace reproduce the
	// peer's bootstrap state exactly.
	refs := make([]ids.PeerID, 0, len(book))
	for p := range book {
		refs = append(refs, p)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	for _, replica := range replicas {
		spec := replica.Spec()
		if *rot {
			block := rand.Intn(spec.Blocks())
			replica.Damage(block)
			injected = append(injected, trace.DamageRef{AU: spec.ID, Block: block})
			log.Printf("simulated bit rot: AU %d block %d corrupted", spec.ID, block)
		}
		if err := nd.AddAU(replica, refs); err != nil {
			log.Fatal(err)
		}
		for _, r := range refs {
			nd.Peer().SeedGrade(spec.ID, r, reputation.Even)
		}
	}
	nd.SetFriends(refs)

	if rec != nil {
		hdr := trace.Header{
			Peer:       ids.PeerID(*id),
			Seed:       uint64(*id) * 7919,
			StartT:     int64(nd.Epoch()),
			Protocol:   pcfg,
			Costs:      costs,
			MBF:        effort.DefaultMBFParams(),
			EffortUnit: float64(effort.DemoEffortUnit),
			Friends:    refs,
			AUs:        auHeaders(replicas, refs),
			Injected:   injected,
		}
		if err := rec.WriteHeader(hdr); err != nil {
			log.Fatal(err)
		}
		log.Printf("recording trace to %s", *record)
	}

	if err := nd.Start(); err != nil {
		log.Fatal(err)
	}
	log.Printf("preserving %d AUs; polling every %v, waits ×%.2f the paper's ratios; peers: %v", len(replicas), *interval, protocol.Stretch(pcfg), *peers)

	// statsCtl re-arms the periodic stats ticker at runtime; SIGHUP and the
	// admin API's POST /reload both feed it. Buffered so senders never block;
	// back-to-back reconfigurations coalesce to the newest interval.
	statsCtl := make(chan time.Duration, 1)
	setStatsInterval := func(d time.Duration) {
		for {
			select {
			case statsCtl <- d:
				return
			default:
				select {
				case <-statsCtl:
				default:
				}
			}
		}
	}

	// The admin control plane serves /metrics, /healthz, /aus, /peers,
	// /polls, /flightrecorder, /reload and /drain off the running node. A
	// completed drain ends the process the same way a signal does, through
	// the shared shutdown path below.
	drained := make(chan struct{})
	if *adminAddr != "" {
		adm := admin.New(nd, admin.Options{
			Logf:      log.Printf,
			OnDrained: func() { close(drained) },
			Version:   version,
			OnReload: func(c admin.ReloadConfig) {
				if c.StatsInterval != nil {
					setStatsInterval(*c.StatsInterval)
				}
			},
		})
		if err := adm.Start(*adminAddr); err != nil {
			log.Fatal(err)
		}
		defer adm.Close()
		log.Printf("admin API on http://%v (metrics, healthz, aus, peers, polls, flightrecorder, reload, drain)", adm.Addr())
	}

	// statsLine renders one aggregate snapshot; the periodic ticker and the
	// exit report below share it so the two can never drift apart.
	statsLine := func(s node.Stats) string {
		line := fmt.Sprintf("polls ok=%d inq=%d incon=%d repfail=%d votes=%d repairs rx=%d tx=%d | transport sent=%d dropped=%d dials=%d",
			s.Peer.PollsSucceeded, s.Peer.PollsInquorate, s.Peer.PollsInconclusive, s.Peer.PollsRepairFailed,
			s.Peer.VotesReceived, s.Peer.RepairsReceived, s.Peer.RepairsServed,
			s.Transport.Sent, s.Transport.Drops, s.Transport.Dials)
		if st != nil {
			line += fmt.Sprintf(" | store scanned=%d verified=%d damaged=%d repaired=%d passes=%d",
				s.Store.BlocksScanned, s.Store.BlocksVerified, s.Store.BlocksDamaged,
				s.Store.BlocksRepaired, s.Store.ScrubPasses)
		}
		return line
	}
	// The stats loop always runs so an interval can be switched on, off or
	// changed at runtime (SIGHUP, POST /reload) even when the node started
	// with -stats-interval 0.
	statsDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Hour)
		tick.Stop()
		rearm := func(d time.Duration) {
			if d > 0 {
				tick.Reset(d)
				return
			}
			tick.Stop()
			// Drop a tick that fired before the Stop landed.
			select {
			case <-tick.C:
			default:
			}
		}
		rearm(*statsIvl)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if s, ok := nd.StatsWithin(5 * time.Second); ok {
					log.Printf("stats: %s", statsLine(s))
				} else {
					log.Printf("stats: actor loop unresponsive")
				}
			case d := <-statsCtl:
				rearm(d)
				log.Printf("stats interval now %v", d)
			case <-statsDone:
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
wait:
	for {
		select {
		case <-sig:
			log.Printf("shutting down")
			break wait
		case <-drained:
			log.Printf("drained via admin API; shutting down")
			break wait
		case <-hup:
			// SIGHUP restores the startup flag values, undoing any POST
			// /reload; flags are parsed once, so nothing newer is read.
			nd.SetScrubPace(*scrubPace)
			nd.SetScrubBandwidth(*scrubBW)
			setStatsInterval(*statsIvl)
			log.Printf("SIGHUP: reapplied scrub pace %v, scrub bandwidth %d B/s, stats interval %v",
				*scrubPace, *scrubBW, *statsIvl)
		}
	}
	close(statsDone)
	nd.Stop() // idempotent: a no-op when the drain already stopped the node
	if rec != nil {
		// The node has fully drained: no tap callback can still be running.
		if err := rec.Close(); err != nil {
			log.Printf("trace recording failed: %v", err)
		} else {
			log.Printf("trace recorded to %s", *record)
		}
		recFile.Close()
	}

	// Exit report: the same aggregate snapshot the ticker renders, expanded.
	s := nd.Stats()
	log.Printf("stats: %s", statsLine(s))
	log.Printf("polls: ok=%d inquorate=%d inconclusive=%d repair-failed=%d alarms=%d; votes supplied=%d; repairs served=%d",
		s.Peer.PollsSucceeded, s.Peer.PollsInquorate, s.Peer.PollsInconclusive, s.Peer.PollsRepairFailed,
		s.Peer.Alarms, s.Peer.VotesSupplied, s.Peer.RepairsServed)
	log.Printf("transport: sent=%d dropped=%d (queue-full=%d) dials=%d redials=%d dial-failures=%d queue-highwater=%d inbound accepted=%d rejected=%d invites-shed=%d",
		s.Transport.Sent, s.Transport.Drops, s.Transport.DropsQueueFull, s.Transport.Dials,
		s.Transport.Redials, s.Transport.DialFailures, s.Transport.QueueHighWater,
		s.Transport.InboundAccepted, s.Transport.InboundRejected, s.Transport.InvitesShed)
	if st != nil {
		log.Printf("store: scanned=%d verified=%d damaged=%d repaired=%d passes=%d manifest-writes=%d injected=%d",
			s.Store.BlocksScanned, s.Store.BlocksVerified, s.Store.BlocksDamaged, s.Store.BlocksRepaired,
			s.Store.ScrubPasses, s.Store.ManifestWrites, s.Store.DamageInjected)
		log.Printf("store io: ingested=%dB scrubbed=%dB manifest mutations=%d commits=%d fsyncs=%d",
			s.Store.BytesIngested, s.Store.BytesScrubbed, s.Store.ManifestMutations,
			s.Store.ManifestCommits, s.Store.Fsyncs)
	}
}

// quietObserver suppresses per-vote logging.
type quietObserver struct{ logObserver }

func (q quietObserver) VoteSupplied(ids.PeerID, ids.PeerID, content.AUID, uint64, sched.Time) {}
