// Command lockss-fleet operates a population of in-process LOCKSS nodes on
// one machine from a declarative config: it boots N nodes on loopback,
// drives a scheduled fault plan (damage injection, kill/restart, stalled
// peers, partitions, steady churn) with a seeded PRNG, reads every node's
// counters and health in process on an interval (the scalar families a
// node's admin /metrics prints, without HTTP), and writes one JSON report
// of the run plus a human summary table.
//
// Before shutdown the harness sweeps every node's flight recorder: per-node
// latency histograms are merged into fleet-wide p50/p95/p99 tables (poll
// duration, solicitation→vote latency, tally/repair time, transport queue
// wait, scrub pass time, admin latency), and each initiator's poll span is
// joined — by poll ID — with the votes other nodes supplied to it, giving a
// cross-node poll timeline. Both appear under "telemetry" in the JSON report
// and as a latency table in the summary.
//
//	lockss-fleet -config examples/fleet/attrition-small.json -o report.json -check
//
// The config is JSON with //-comment lines; see examples/fleet/ and
// docs/ARCHITECTURE.md ("Control plane & fleet") for the schema. -check
// turns the run into a gate: exit 0 only when the final report shows zero
// unrepaired damage and every node healthy (protocol listener bound, actor
// loop answering within 2s) — how CI asserts a 25-node population heals
// scheduled damage through a kill/restart.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lockss/internal/fleet"
)

func main() {
	var (
		cfgPath  = flag.String("config", "", "fleet config file (JSON with //-comments; required)")
		out      = flag.String("o", "fleet-report.json", "write the JSON fleet report here (\"-\" = stdout)")
		check    = flag.Bool("check", false, "exit non-zero unless the run converged (zero unrepaired damage) with every node healthy")
		duration = flag.Duration("duration", 0, "override the config's run duration")
		verbose  = flag.Bool("v", false, "log every fault and supervision event")
	)
	flag.Parse()
	log.SetPrefix("lockss-fleet ")
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "lockss-fleet: -config is required")
		os.Exit(2)
	}
	cfg, err := fleet.LoadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockss-fleet: %v\n", err)
		os.Exit(2)
	}
	if *duration > 0 {
		cfg.Duration = fleet.Duration(*duration)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	// Signals cancel the run; the report covers what ran.
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("interrupted; finishing the run early")
		cancel()
	}()

	log.Printf("running %d nodes for %v (seed %d, %d faults scheduled)",
		cfg.Nodes, time.Duration(cfg.Duration), cfg.Seed, len(cfg.Faults))
	f := fleet.New(cfg, logf)
	rep, err := f.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockss-fleet: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockss-fleet: encode report: %v\n", err)
		os.Exit(1)
	}
	if *out == "-" {
		os.Stdout.Write(append(data, '\n'))
	} else if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lockss-fleet: write report: %v\n", err)
		os.Exit(1)
	} else {
		log.Printf("report written to %s", *out)
	}

	fmt.Print(rep.Summary())

	if *check && (!rep.Final.Converged || !rep.Final.AllHealthy) {
		fmt.Fprintf(os.Stderr, "lockss-fleet: CHECK FAILED: converged=%v all_healthy=%v unrepaired=%d\n",
			rep.Final.Converged, rep.Final.AllHealthy, rep.Final.UnrepairedDamage)
		os.Exit(1)
	}
}
