// Command cstunerd serves the multi-tenant campaign service over HTTP:
// tenants submit tuning campaigns, poll their progress, cancel, pause and
// resume them, while the registry interleaves measurement work fairly
// across tenants and write-ahead journals every campaign so a killed server
// resumes all of them deterministically on restart.
//
// Usage:
//
//	cstunerd -root /var/lib/cstuner -addr :8080
//	cstunerd -root ./campaigns -addr 127.0.0.1:8080 -slots 8 -tenant-budget 600
//
// Endpoints (see DESIGN.md §10 and the README quickstart):
//
//	POST /v1/campaigns               submit a campaign spec
//	GET  /v1/campaigns[?tenant=t]    list campaigns
//	GET  /v1/campaigns/{id}          poll one campaign
//	POST /v1/campaigns/{id}/cancel   cancel (terminal)
//	POST /v1/campaigns/{id}/pause    pause, keeping all journaled work
//	POST /v1/campaigns/{id}/resume   resume a paused campaign via replay
//	GET  /v1/tenants                 per-tenant budget ledgers
//	GET  /v1/store                   shared result-store counters
//	GET  /v1/healthz                 liveness + per-subsystem health
//
// /v1/healthz always answers 200 while the process lives; the body carries
// per-subsystem detail (store ok/degraded/disabled, campaign states,
// directory-fsync failure counts). The daemon rides out disk trouble
// instead of crashing: a store write failure flips the store to read-only
// (hits keep serving, misses keep measuring), a journal failure fails only
// its campaign, and an ENOSPC-refused submit answers 507 while every other
// tenant keeps running.
//
// On SIGINT/SIGTERM the server stops accepting requests, drains in-flight
// HTTP handlers, then closes the registry: running campaigns' contexts are
// cancelled (cancelled measurements are never journaled, so the journal
// holds exactly the paid-for prefix), and runner goroutines drain, each
// syncing its journal before it exits. The next start re-scans the root and
// resumes every interrupted campaign.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cstunerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root         = flag.String("root", "campaigns", "registry root directory (one subdirectory per campaign)")
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		slots        = flag.Int("slots", 8, "concurrent measurement slots shared by all campaigns")
		tenantBudget = flag.Float64("tenant-budget", 0, "default per-tenant virtual budget in seconds (0 = unmetered)")
		enableStore  = flag.Bool("store", false, "share measured results across campaigns via <root>/store (warm starts, zero-cost store hits)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight HTTP requests")
	)
	flag.Parse()

	start := time.Now()
	reg, err := campaign.Open(*root, campaign.Options{
		Slots:         *slots,
		TenantBudgetS: *tenantBudget,
		EnableStore:   *enableStore,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cstunerd: %s\n", opened(reg, time.Since(start)))
	if h := reg.Health(); h.Degraded {
		// Startup found the storage already limping (e.g. a store segment
		// could not be created). Serve anyway — degradation is visible in
		// /v1/healthz — but say so where an operator tailing logs will look.
		fmt.Fprintf(os.Stderr, "cstunerd: warning: starting degraded (store=%s dir_sync_errs=%d)\n", h.Store, h.DirSyncErrs)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.New(reg),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cstunerd: serving %s from %s\n", *addr, *root)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cstunerd: %v; draining\n", sig)
	case err := <-errc:
		_ = reg.Close()
		return err
	}

	// HTTP first (no request may observe a closed registry), registry second
	// (cancel runners, drain goroutines; each runner syncs its journal).
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "cstunerd: http shutdown: %v\n", err)
	}
	if err := reg.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "cstunerd: stopped; campaigns resume on next start")
	return nil
}

// opened describes what the registry's open loaded and how long it took:
// the campaigns by state, in lifecycle order, and, when the store is on,
// its loaded records, the segments whose load stopped early and its keys.
func opened(reg *campaign.Registry, took time.Duration) string {
	h := reg.Health()
	var b strings.Builder
	fmt.Fprintf(&b, "opened %d campaigns", h.Campaigns)
	sep := " ("
	for _, s := range []campaign.State{campaign.StatePending, campaign.StateRunning, campaign.StatePaused,
		campaign.StateCompleted, campaign.StateFailed, campaign.StateCanceled} {
		if n := h.ByState[s]; n > 0 {
			fmt.Fprintf(&b, "%s%s %d", sep, s, n)
			sep = ", "
		}
	}
	if sep == ", " {
		b.WriteString(")")
	}
	if st, ok := reg.StoreStats(); ok {
		fmt.Fprintf(&b, "; store: %d records loaded, %d segments cut short, %d keys", st.LoadedRecords, st.SkippedSegments, st.Keys)
	}
	fmt.Fprintf(&b, " in %v", took.Round(10*time.Microsecond))
	return b.String()
}
