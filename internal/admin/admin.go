// Package admin embeds an HTTP control plane into a running node: live
// Prometheus-text counters, health checking, per-AU and per-peer state
// inspection, and graceful drain. Its scalar families are declared once;
// /metrics prints them and Read hands the same values to an in-process
// supervisor (internal/fleet) without HTTP.
//
// Every handler reads through paths that cannot block the protocol:
// transport and store counters are atomic snapshots, and protocol state is
// fetched with one bounded post onto the node's actor loop (node.Within) —
// if the loop does not respond within the inspect timeout (3s) the handler
// degrades (503, or metrics without the protocol section) instead of
// waiting. No handler ever locks protocol state directly.
//
// Endpoints:
//
//	GET  /metrics         Prometheus text: transport, store and protocol
//	                      counters, latency histogram families from the
//	                      node's telemetry recorder, liveness gauges
//	                      (lockss_actor_responsive, ...) and build info.
//	GET  /healthz         200 when the listener is up, the actor loop answers
//	                      a bounded round trip and the scrubber is making
//	                      progress; 503 with a JSON body naming the failing
//	                      checks otherwise.
//	GET  /aus             JSON: per-AU damage marks, generation, in-flight
//	                      poll deadline and graded reference list.
//	GET  /peers           JSON: per-peer dial address, link state (live
//	                      session, queue depth, pending backoff) and per-AU
//	                      grades.
//	GET  /polls           JSON: recent and in-flight poll spans (initiator
//	                      side) plus supplied votes (voter side), filterable
//	                      by ?au= and ?outcome=.
//	GET  /flightrecorder  JSON: the telemetry ring's recent poll-lifecycle
//	                      events, oldest first.
//	POST /reload          Apply runtime-tunable config (scrub pace, scrub
//	                      bandwidth, stats interval) to the running node.
//	POST /drain           Graceful drain: stop calling polls, finish
//	                      in-flight ones, flush the store, then invoke
//	                      OnDrained (the node binary exits 0). Responds 202
//	                      immediately.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/telemetry"
)

// Options configures the control plane.
type Options struct {
	// Logf receives diagnostics (may be nil).
	Logf func(format string, args ...any)
	// OnDrained runs once a POST /drain has fully drained and stopped the
	// node; lockss-node exits 0 from it. May be nil.
	OnDrained func()
	// inspectTimeout bounds the actor-loop round trip behind every handler
	// that needs protocol state. Default 3s; only tests lower it.
	inspectTimeout time.Duration
	// ScrubStall marks the store scrubber unhealthy when its counters stop
	// moving for this long. Zero disables the check (no store, or a pace so
	// slow that stall detection is meaningless). Size it to comfortably
	// exceed one full scrub pass: pace * blocks + the pass pause.
	ScrubStall time.Duration
	// Version labels the lockss_build_info metric. Default "dev".
	Version string
	// OnReload, if non-nil, runs after a POST /reload has applied its scrub
	// knobs to the node, with the parsed request — the embedding binary's
	// hook for knobs the node itself does not own (the stats interval).
	OnReload func(ReloadConfig)
}

// ReloadConfig is the parsed body of a POST /reload; nil fields were absent
// from the request and stay unchanged.
type ReloadConfig struct {
	// ScrubPace retunes the running scrubber's per-block pause.
	ScrubPace *time.Duration
	// ScrubBandwidth retunes the scrubber's read budget in bytes/second
	// (0 = unlimited).
	ScrubBandwidth *int64
	// StatsInterval retunes the embedding binary's periodic stats line; the
	// node ignores it (applied via Options.OnReload).
	StatsInterval *time.Duration
}

// Server is the embedded control plane for one node.
type Server struct {
	n       *node.Node
	opts    Options
	mux     *http.ServeMux
	handler http.Handler
	srv     *http.Server

	lnMu sync.Mutex
	ln   net.Listener

	drainOnce sync.Once

	// Scrub progress tracking for /healthz: counters at the last observed
	// change and when that change was seen.
	scrubMu   sync.Mutex
	scrubSeen uint64
	scrubAt   time.Time
}

// New builds the control plane for a node. Call Start to serve it.
func New(n *node.Node, opts Options) *Server {
	if opts.inspectTimeout <= 0 {
		opts.inspectTimeout = 3 * time.Second
	}
	if opts.Version == "" {
		opts.Version = "dev"
	}
	s := &Server{n: n, opts: opts, scrubAt: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /aus", s.handleAUs)
	mux.HandleFunc("GET /peers", s.handlePeers)
	mux.HandleFunc("GET /polls", s.handlePolls)
	mux.HandleFunc("GET /flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("POST /drain", s.handleDrain)
	s.mux = mux
	// Every request is timed into the node's admin-latency histogram — the
	// control plane monitors itself with the same machinery it exposes.
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mux.ServeHTTP(w, r)
		n.Telemetry().AdminLatency.Observe(time.Since(start).Nanoseconds())
	})
	s.handler = timed
	s.srv = &http.Server{Handler: timed, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler exposes the route table (tests drive it without a listener).
func (s *Server) Handler() http.Handler { return s.handler }

// Start listens on addr and serves in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logf("admin: serve: %v", err)
		}
	}()
	s.logf("admin: listening on %v", ln.Addr())
	return nil
}

// Addr returns the bound admin address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops serving. It does not touch the node.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// scrape is everything one read of the scalar families takes from the node,
// gathered once so the family getters are pure functions of it.
type scrape struct {
	node.Stats
	// responsive reports that the actor loop answered the round trip;
	// Stats.Peer and aus are only meaningful when it is set.
	responsive bool
	hasStore   bool
	links      []node.LinkInfo
	aus        []protocol.AUInfo
}

// snapshot reads the node for the scalar families. The protocol counters
// and the AU infos come from one actor round trip bounded by timeout, so a
// wedged loop costs one timeout and both describe the same instant.
func snapshot(n *node.Node, timeout time.Duration) *scrape {
	type actorView struct {
		stats protocol.PeerStats
		aus   []protocol.AUInfo
	}
	v, ok := node.Within(n, timeout, func(p *protocol.Peer) actorView {
		return actorView{p.Stats(), p.AUInfos()}
	})
	return &scrape{
		Stats:      n.StatsFrom(v.stats),
		responsive: ok,
		hasStore:   n.HasStore(),
		links:      n.LinkInfos(),
		aus:        v.aus,
	}
}

// section names the part of a scrape a family is computed from, and with it
// the condition under which the family is exported at all.
type section int

const (
	always   section = iota // transport counters and liveness gauges
	hasStore                // only on a node running a durable store
	actorUp                 // only when the actor loop answered the round trip
)

// each calls emit for every scalar family the scrape exports, in
// exposition order, with its value.
func (sc *scrape) each(emit func(f *family, v float64)) {
	export := [...]bool{always: true, hasStore: sc.hasStore, actorUp: sc.responsive}
	for i := range scalarFamilies {
		if f := &scalarFamilies[i]; export[f.in] {
			emit(f, f.get(sc))
		}
	}
}

// Read returns n's exported scalar families by exposition name, under the
// same section rules as /metrics, and whether n is healthy: its protocol
// listener is bound and its actor loop answered within timeout. It is how a
// supervisor running nodes in its own process reads them without HTTP.
func Read(n *node.Node, timeout time.Duration) (map[string]float64, bool) {
	sc := snapshot(n, timeout)
	out := make(map[string]float64, len(scalarFamilies))
	sc.each(func(f *family, v float64) { out[f.name] = v })
	return out, sc.responsive && n.Addr() != nil
}

// family declares one scalar metric: its exposition name, type and HELP
// text, and how to read its value out of a scrape.
type family struct {
	name, typ, help string
	in              section
	get             func(*scrape) float64
}

func counter(name, help string, in section, get func(*scrape) uint64) family {
	return family{name, "counter", help, in, func(sc *scrape) float64 { return float64(get(sc)) }}
}

func gauge(name, help string, in section, get func(*scrape) float64) family {
	return family{name, "gauge", help, in, get}
}

// sumLinks and sumAUs build getters that sum a per-element quantity over the
// scrape's link and AU infos.
func sumLinks(f func(node.LinkInfo) int) func(*scrape) float64 {
	return func(sc *scrape) float64 {
		n := 0
		for _, l := range sc.links {
			n += f(l)
		}
		return float64(n)
	}
}

func sumAUs(f func(protocol.AUInfo) int) func(*scrape) float64 {
	return func(sc *scrape) float64 {
		n := 0
		for _, au := range sc.aus {
			n += f(au)
		}
		return float64(n)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scalarFamilies is the node's scalar exposition, declared once, in
// exposition order. handleMetrics and Read walk it; nothing else names a
// metric.
var scalarFamilies = []family{
	gauge("lockss_up", "Always 1 while the admin server answers.", always,
		func(*scrape) float64 { return 1 }),
	gauge("lockss_actor_responsive", "1 when the protocol actor loop answered a bounded round trip.", always,
		func(sc *scrape) float64 { return float64(b2i(sc.responsive)) }),

	counter("lockss_transport_sent_total", "Frames successfully handed to the kernel.", always,
		func(sc *scrape) uint64 { return sc.Transport.Sent }),
	counter("lockss_transport_drops_total", "Messages discarded anywhere on the send path.", always,
		func(sc *scrape) uint64 { return sc.Transport.Drops }),
	counter("lockss_transport_drops_queue_full_total", "Drops due to a full per-peer send queue.", always,
		func(sc *scrape) uint64 { return sc.Transport.DropsQueueFull }),
	counter("lockss_transport_dials_total", "Outbound dial attempts.", always,
		func(sc *scrape) uint64 { return sc.Transport.Dials }),
	counter("lockss_transport_redials_total", "Dial attempts reconnecting a previously live peer.", always,
		func(sc *scrape) uint64 { return sc.Transport.Redials }),
	counter("lockss_transport_dial_failures_total", "Dial or handshake attempts that produced no session.", always,
		func(sc *scrape) uint64 { return sc.Transport.DialFailures }),
	gauge("lockss_transport_queue_highwater", "Maximum per-peer outbound queue depth observed.", always,
		func(sc *scrape) float64 { return float64(sc.Transport.QueueHighWater) }),
	counter("lockss_transport_inbound_accepted_total", "Inbound connections admitted to handshake.", always,
		func(sc *scrape) uint64 { return sc.Transport.InboundAccepted }),
	counter("lockss_transport_inbound_rejected_total", "Inbound connections refused by the admission caps.", always,
		func(sc *scrape) uint64 { return sc.Transport.InboundRejected }),
	counter("lockss_invites_shed_total", "Poll invitations the read loops dropped undecoded as certain refractory rejections; also in lockss_invites_ignored_total.", always,
		func(sc *scrape) uint64 { return sc.Transport.InvitesShed }),

	gauge("lockss_peer_links", "Outbound peer links ever created.", always,
		func(sc *scrape) float64 { return float64(len(sc.links)) }),
	gauge("lockss_peer_links_connected", "Outbound peer links with a live session.", always,
		sumLinks(func(l node.LinkInfo) int { return b2i(l.Connected) })),
	gauge("lockss_send_queue_depth", "Total frames waiting in outbound queues.", always,
		sumLinks(func(l node.LinkInfo) int { return l.QueueDepth })),

	counter("lockss_store_blocks_scanned_total", "Blocks read by the scrubber.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.BlocksScanned }),
	counter("lockss_store_blocks_verified_total", "Scrubbed blocks that matched their manifest hash.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.BlocksVerified }),
	counter("lockss_store_blocks_damaged_total", "Blocks newly marked damaged.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.BlocksDamaged }),
	counter("lockss_store_blocks_repaired_total", "Damage marks cleared by verified bytes.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.BlocksRepaired }),
	counter("lockss_store_scrub_passes_total", "Completed full scrub passes.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.ScrubPasses }),
	counter("lockss_store_manifest_writes_total", "Manifest files written.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.ManifestWrites }),
	counter("lockss_store_manifest_mutations_total", "Manifest mutations requested.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.ManifestMutations }),
	counter("lockss_store_manifest_commits_total", "Group commits flushed.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.ManifestCommits }),
	counter("lockss_store_fsyncs_total", "fsync calls issued by the store.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.Fsyncs }),
	counter("lockss_store_bytes_ingested_total", "Content bytes ingested.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.BytesIngested }),
	counter("lockss_store_bytes_scrubbed_total", "Content bytes read by the scrubber.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.BytesScrubbed }),
	counter("lockss_store_damage_injected_total", "Blocks corrupted by the damage-injection API.", hasStore,
		func(sc *scrape) uint64 { return sc.Store.DamageInjected }),

	counter("lockss_polls_started_total", "Polls this peer initiated.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.PollsStarted }),
	counter("lockss_polls_succeeded_total", "Polls concluded with a landslide agreement.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.PollsSucceeded }),
	counter("lockss_polls_inquorate_total", "Polls concluded without reaching quorum.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.PollsInquorate }),
	counter("lockss_polls_inconclusive_total", "Polls concluded without a landslide either way.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.PollsInconclusive }),
	counter("lockss_polls_repair_failed_total", "Polls whose repair attempt failed.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.PollsRepairFailed }),
	counter("lockss_polls_concluded_total", "Polls concluded, any outcome.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.PollsConcluded() }),
	counter("lockss_alarms_total", "Inconclusive-poll alarms raised.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.Alarms }),
	counter("lockss_votes_supplied_total", "Votes this peer supplied to other pollers.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.VotesSupplied }),
	counter("lockss_votes_received_total", "Valid votes received in this peer's polls.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.VotesReceived }),
	counter("lockss_invites_considered_total", "Poll invitations considered.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.InvitesConsidered }),
	counter("lockss_invites_refused_total", "Poll invitations refused.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.InvitesRefused }),
	counter("lockss_invites_ignored_total", "Poll invitations ignored.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.InvitesIgnored }),
	counter("lockss_repairs_served_total", "Repair blocks served to other peers.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.RepairsServed }),
	counter("lockss_repairs_received_total", "Repair blocks received and applied.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.RepairsReceived }),
	counter("lockss_acks_timed_out_total", "Invitation acks that timed out.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.AcksTimedOut }),
	counter("lockss_votes_timed_out_total", "Votes that timed out.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.VotesTimedOut }),
	counter("lockss_proofs_timed_out_total", "Effort proofs that timed out.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.ProofsTimedOut }),
	counter("lockss_receipts_timed_out_total", "Evaluation receipts that timed out.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.ReceiptsTimedOut }),
	counter("lockss_bad_proofs_total", "Effort proofs that failed verification.", actorUp,
		func(sc *scrape) uint64 { return sc.Peer.BadProofs }),

	gauge("lockss_aus", "Archival units registered.", actorUp,
		func(sc *scrape) float64 { return float64(len(sc.aus)) }),
	gauge("lockss_au_damaged_blocks", "Blocks currently marked damaged across all AUs.", actorUp,
		sumAUs(func(au protocol.AUInfo) int { return len(au.DamagedBlocks) })),
	gauge("lockss_active_polls", "AUs with a poll in flight.", actorUp,
		sumAUs(func(au protocol.AUInfo) int { return b2i(au.PollActive) })),
	gauge("lockss_voter_sessions", "Live voter-side sessions across all AUs.", actorUp,
		sumAUs(func(au protocol.AUInfo) int { return au.VoterSessions })),
}

// handleMetrics serves Prometheus text-format counters. Transport and store
// counters always appear (atomic snapshots); protocol counters and AU gauges
// appear only when the actor loop answered in time, with
// lockss_actor_responsive telling the two apart.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sc := snapshot(s.n, s.opts.inspectTimeout)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sc.each(func(f *family, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", f.name, f.help, f.name, f.typ, f.name, v)
	})

	fmt.Fprintf(w, "# HELP lockss_build_info Build metadata; value is always 1.\n")
	fmt.Fprintf(w, "# TYPE lockss_build_info gauge\n")
	fmt.Fprintf(w, "lockss_build_info{version=%q,goversion=%q} 1\n", s.opts.Version, runtime.Version())

	writeHistograms(w, s.n.Telemetry())
}

// writeHistograms expositions the telemetry recorder's histogram families as
// native Prometheus histograms: cumulative _bucket series over the trimmed
// log2 bounds, the implicit +Inf bucket, _sum in seconds and _count.
func writeHistograms(w http.ResponseWriter, tel *telemetry.Telemetry) {
	for _, fam := range telemetry.HistogramFamilies() {
		name := "lockss_" + fam.Name + "_seconds"
		snap := fam.Of(tel).Snapshot()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, fam.Help, name)
		bounds, cum := snap.Bounds()
		for i, b := range bounds {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(snap.Sum)/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
	}
}

// formatBound renders a bucket bound in seconds at full float64 precision,
// so a scraper parses back exactly the bound the node used.
func formatBound(sec float64) string {
	return strconv.FormatFloat(sec, 'g', 17, 64)
}

// health is the /healthz body.
type health struct {
	Healthy  bool `json:"healthy"`
	Listener bool `json:"listener"`
	Actor    bool `json:"actor"`
	Scrub    bool `json:"scrub"`
}

// handleHealthz runs the three liveness checks: the protocol listener is
// bound, the actor loop answers a bounded post round trip, and the store
// scrubber's counters moved within ScrubStall.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := health{Listener: s.n.Addr() != nil, Scrub: true}
	_, h.Actor = node.Within(s.n, s.opts.inspectTimeout, func(*protocol.Peer) struct{} { return struct{}{} })
	if s.opts.ScrubStall > 0 && s.n.HasStore() {
		h.Scrub = s.scrubAlive()
	}
	h.Healthy = h.Listener && h.Actor && h.Scrub
	w.Header().Set("Content-Type", "application/json")
	if !h.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// scrubAlive reports whether the scrubber's counters have moved within
// ScrubStall. Progress is scans plus completed passes, so a tiny store whose
// pass finishes between probes still registers.
func (s *Server) scrubAlive() bool {
	ss := s.n.StoreStats()
	progress := ss.BlocksScanned + ss.ScrubPasses
	now := time.Now()
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if progress != s.scrubSeen {
		s.scrubSeen = progress
		s.scrubAt = now
		return true
	}
	return now.Sub(s.scrubAt) <= s.opts.ScrubStall
}

// auJSON is the /aus wire shape for one AU.
type auJSON struct {
	ID            uint32     `json:"id"`
	Name          string     `json:"name"`
	Size          int64      `json:"size"`
	BlockSize     int64      `json:"block_size"`
	Blocks        int        `json:"blocks"`
	Generation    uint64     `json:"generation"`
	DamagedBlocks []int      `json:"damaged_blocks"`
	PollActive    bool       `json:"poll_active"`
	PollDeadline  *time.Time `json:"poll_deadline,omitempty"`
	Expedite      bool       `json:"expedite"`
	LastSuccess   *time.Time `json:"last_success,omitempty"`
	VoterSessions int        `json:"voter_sessions"`
	RefList       []refSON   `json:"ref_list"`
}

type refSON struct {
	Peer  uint32 `json:"peer"`
	Grade string `json:"grade"`
}

// handleAUs serves the per-AU inspection snapshot.
func (s *Server) handleAUs(w http.ResponseWriter, r *http.Request) {
	infos, ok := node.Within(s.n, s.opts.inspectTimeout, (*protocol.Peer).AUInfos)
	if !ok {
		http.Error(w, "actor loop unresponsive", http.StatusServiceUnavailable)
		return
	}
	out := make([]auJSON, 0, len(infos))
	for _, au := range infos {
		j := auJSON{
			ID:            uint32(au.Spec.ID),
			Name:          au.Spec.Name,
			Size:          au.Spec.Size,
			BlockSize:     au.Spec.BlockSize,
			Blocks:        au.Spec.Blocks(),
			Generation:    au.Generation,
			DamagedBlocks: au.DamagedBlocks,
			PollActive:    au.PollActive,
			Expedite:      au.Expedite,
			VoterSessions: au.VoterSessions,
			RefList:       make([]refSON, 0, len(au.RefList)),
		}
		if j.DamagedBlocks == nil {
			j.DamagedBlocks = []int{}
		}
		// The node's protocol clock is Unix nanoseconds from its wall-clock epoch.
		if au.PollActive {
			t := time.Unix(0, int64(au.PollDeadline))
			j.PollDeadline = &t
		}
		if au.LastSuccess >= 0 {
			t := time.Unix(0, int64(au.LastSuccess))
			j.LastSuccess = &t
		}
		for _, e := range au.RefList {
			j.RefList = append(j.RefList, refSON{Peer: uint32(e.Peer), Grade: e.Grade.String()})
		}
		out = append(out, j)
	}
	writeJSON(w, out)
}

// peerJSON is the /peers wire shape for one known peer.
type peerJSON struct {
	Peer       uint32            `json:"peer"`
	Addr       string            `json:"addr,omitempty"`
	Connected  bool              `json:"connected"`
	QueueDepth int               `json:"queue_depth"`
	QueueCap   int               `json:"queue_cap"`
	NextDial   *time.Time        `json:"next_dial,omitempty"`
	Grades     map[string]string `json:"grades,omitempty"` // AU id -> grade
}

// handlePeers merges three views of the peerage: the address book, the
// transport's outbound links and the per-AU reference-list grades.
func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	infos, ok := node.Within(s.n, s.opts.inspectTimeout, (*protocol.Peer).AUInfos)
	if !ok {
		http.Error(w, "actor loop unresponsive", http.StatusServiceUnavailable)
		return
	}
	peers := make(map[ids.PeerID]*peerJSON)
	ensure := func(id ids.PeerID) *peerJSON {
		p, ok := peers[id]
		if !ok {
			p = &peerJSON{Peer: uint32(id)}
			peers[id] = p
		}
		return p
	}
	for id, addr := range s.n.Addresses() {
		ensure(id).Addr = addr
	}
	for _, l := range s.n.LinkInfos() {
		p := ensure(l.Peer)
		p.Connected = l.Connected
		p.QueueDepth = l.QueueDepth
		p.QueueCap = l.QueueCap
		if !l.NextDial.IsZero() {
			t := l.NextDial
			p.NextDial = &t
		}
	}
	for _, au := range infos {
		key := fmt.Sprintf("%d", au.Spec.ID)
		for _, e := range au.RefList {
			p := ensure(e.Peer)
			if p.Grades == nil {
				p.Grades = make(map[string]string)
			}
			p.Grades[key] = e.Grade.String()
		}
	}
	out := make([]peerJSON, 0, len(peers))
	for _, p := range peers {
		out = append(out, *p)
	}
	// Stable order for operators and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Peer > out[j].Peer; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	writeJSON(w, out)
}

// pollsJSON is the /polls body: the initiator-side spans and the voter-side
// vote records a fleet-level timeline joins by poll ID.
type pollsJSON struct {
	Peer  uint32                 `json:"peer"`
	Polls []telemetry.PollSpan   `json:"polls"`
	Votes []telemetry.VoteRecord `json:"votes"`
}

// handlePolls serves the telemetry recorder's poll spans (recent concluded,
// oldest first, then in-flight) and supplied votes. ?au=N filters both by
// archival unit; ?outcome=success|inquorate|inconclusive|repair-failed
// filters the spans by conclusion (in-flight spans match outcome=pending).
func (s *Server) handlePolls(w http.ResponseWriter, r *http.Request) {
	tel := s.n.Telemetry()
	out := pollsJSON{
		Peer:  uint32(s.n.ID()),
		Polls: tel.Polls(),
		Votes: tel.Votes(),
	}
	if auStr := r.URL.Query().Get("au"); auStr != "" {
		au, err := strconv.ParseUint(auStr, 10, 32)
		if err != nil {
			http.Error(w, "bad au: "+err.Error(), http.StatusBadRequest)
			return
		}
		out.Polls = filterInPlace(out.Polls, func(p telemetry.PollSpan) bool { return p.AU == uint32(au) })
		out.Votes = filterInPlace(out.Votes, func(v telemetry.VoteRecord) bool { return v.AU == uint32(au) })
	}
	if oc := r.URL.Query().Get("outcome"); oc != "" {
		out.Polls = filterInPlace(out.Polls, func(p telemetry.PollSpan) bool {
			if p.Outcome == "" {
				return oc == "pending"
			}
			return p.Outcome == oc
		})
	}
	if out.Polls == nil {
		out.Polls = []telemetry.PollSpan{}
	}
	if out.Votes == nil {
		out.Votes = []telemetry.VoteRecord{}
	}
	writeJSON(w, out)
}

// filterInPlace keeps the elements of s satisfying keep, preserving order.
func filterInPlace[T any](s []T, keep func(T) bool) []T {
	out := s[:0]
	for _, v := range s {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// handleFlightRecorder dumps the telemetry ring: the most recent
// poll-lifecycle events across every poll this node initiated or voted in,
// oldest first, read without stopping the writers.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	events := s.n.Telemetry().Ring().Snapshot()
	if events == nil {
		events = []telemetry.Event{}
	}
	writeJSON(w, events)
}

// reloadJSON is the POST /reload body; absent fields stay unchanged.
// Durations are Go duration strings ("250ms", "1m30s").
type reloadJSON struct {
	ScrubPace      *string `json:"scrub_pace,omitempty"`
	ScrubBandwidth *int64  `json:"scrub_bandwidth,omitempty"`
	StatsInterval  *string `json:"stats_interval,omitempty"`
}

// handleReload applies runtime-tunable config to the running node: scrub
// pace and bandwidth retune the live scrubber directly; the stats interval is
// forwarded to the embedding binary via Options.OnReload. Responds with the
// applied set.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad reload body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var cfg ReloadConfig
	if req.ScrubPace != nil {
		d, err := time.ParseDuration(*req.ScrubPace)
		if err != nil {
			http.Error(w, "bad scrub_pace: "+err.Error(), http.StatusBadRequest)
			return
		}
		// A negative pace is the store's unthrottled benchmark setting, which
		// lockss-node refuses at startup too.
		if d < 0 {
			http.Error(w, "scrub_pace must be >= 0", http.StatusBadRequest)
			return
		}
		cfg.ScrubPace = &d
	}
	if req.StatsInterval != nil {
		d, err := time.ParseDuration(*req.StatsInterval)
		if err != nil {
			http.Error(w, "bad stats_interval: "+err.Error(), http.StatusBadRequest)
			return
		}
		if d <= 0 {
			http.Error(w, "stats_interval must be positive", http.StatusBadRequest)
			return
		}
		cfg.StatsInterval = &d
	}
	if req.ScrubBandwidth != nil {
		if *req.ScrubBandwidth < 0 {
			http.Error(w, "scrub_bandwidth must be >= 0", http.StatusBadRequest)
			return
		}
		cfg.ScrubBandwidth = req.ScrubBandwidth
	}
	if cfg.ScrubPace != nil {
		s.n.SetScrubPace(*cfg.ScrubPace)
		s.logf("admin: reload: scrub pace -> %v", *cfg.ScrubPace)
	}
	if cfg.ScrubBandwidth != nil {
		s.n.SetScrubBandwidth(*cfg.ScrubBandwidth)
		s.logf("admin: reload: scrub bandwidth -> %d B/s", *cfg.ScrubBandwidth)
	}
	if cfg.StatsInterval != nil {
		s.logf("admin: reload: stats interval -> %v", *cfg.StatsInterval)
	}
	if s.opts.OnReload != nil {
		s.opts.OnReload(cfg)
	}
	writeJSON(w, req)
}

// handleDrain starts a graceful drain exactly once and acknowledges
// immediately; the drain (bounded by the poll window) runs in the
// background and ends with OnDrained — the node binary's cue to exit 0.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.drainOnce.Do(func() {
		go func() {
			// Deliberately not the request context: the drain outlives the
			// HTTP exchange that triggered it.
			if err := s.n.Drain(context.Background()); err != nil {
				s.logf("admin: drain: %v", err)
				return
			}
			s.logf("admin: drain complete")
			if s.opts.OnDrained != nil {
				s.opts.OnDrained()
			}
		}()
	})
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "draining")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
