package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/vfs"
)

// getHealth fetches /v1/healthz and asserts it answers 200 — the daemon
// answering IS liveness; degradation rides in the body.
func getHealth(t *testing.T, ts *httptest.Server) HealthResponse {
	t.Helper()
	var h HealthResponse
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &h)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d body %s (healthz must stay 200 while the process lives)", code, raw)
	}
	return h
}

// TestServiceStoreDegradedKeepsServing fills the "disk" under the shared
// result store (segment creation refused with ENOSPC) and proves graceful
// degradation end to end: campaigns keep completing for every tenant, the
// store serves read-only, and /v1/healthz reports status=degraded with the
// store subsystem called out — while still answering 200.
func TestServiceStoreDegradedKeepsServing(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.OS,
		vfs.Fault{Op: vfs.OpCreate, Path: ".seg", Err: vfs.ENoSpace(), Every: true})
	reg, err := campaign.Open(t.TempDir(), campaign.Options{Slots: 2, EnableStore: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		// The sticky segment-create ENOSPC is the expected close error.
		if err := reg.Close(); err != nil && !vfs.IsNoSpace(err) {
			t.Errorf("registry close: %v", err)
		}
	})

	if h := getHealth(t, ts); h.Status != "ok" || h.Detail.Store != "ok" {
		t.Fatalf("healthy registry reported %+v", h)
	}

	// Tenant A's campaign completes despite the store's disk being gone: the
	// first publish flips the store read-only, misses keep measuring.
	sr := submit(t, ts, testSpec("acme", 1))
	pollUntil(t, ts, sr.ID, campaign.StateCompleted)

	h := getHealth(t, ts)
	if h.Status != "degraded" || !h.Detail.Degraded {
		t.Fatalf("store ENOSPC not surfaced: %+v", h)
	}
	if h.Detail.Store != "degraded" || h.Detail.StoreWriteErr == "" {
		t.Fatalf("per-subsystem detail missing the store failure: %+v", h.Detail)
	}
	if h.Detail.StorePutDrops == 0 {
		t.Fatalf("degraded store recorded no dropped publishes: %+v", h.Detail)
	}

	// Other tenants keep being served by the degraded daemon.
	sr2 := submit(t, ts, testSpec("fresh", 2))
	pollUntil(t, ts, sr2.ID, campaign.StateCompleted)

	var stats StoreResponse
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/store", nil, &stats); code != http.StatusOK {
		t.Fatalf("store stats: %d", code)
	}
	if !stats.Enabled || stats.Stats.WriteErr == "" {
		t.Fatalf("store stats hide the degradation: %+v", stats)
	}
}

// TestServiceSubmitNoSpace507 refuses one campaign's durable admission with
// ENOSPC and proves the honest status: that submit answers 507 Insufficient
// Storage, while submissions whose disk writes succeed — before and after —
// are admitted and run to completion. The refused campaign leaves nothing a
// restart would list.
func TestServiceSubmitNoSpace507(t *testing.T) {
	// Campaign ids are sequential (c000001, c000002, …): fail exactly the
	// second campaign's file creation.
	fsys := vfs.NewFaultFS(vfs.OS,
		vfs.Fault{Op: vfs.OpCreate, Path: "c000002/", Err: vfs.ENoSpace(), Every: true})
	root := t.TempDir()
	reg, err := campaign.Open(root, campaign.Options{Slots: 2, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		if err := reg.Close(); err != nil {
			t.Errorf("registry close: %v", err)
		}
	})

	first := submit(t, ts, testSpec("acme", 1))

	var er ErrorResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", testSpec("acme", 2), &er)
	if code != http.StatusInsufficientStorage || er.Error == "" {
		t.Fatalf("ENOSPC submit: status %d body %s, want 507 with message", code, raw)
	}

	// The refused submission took nothing down: the daemon admits the next
	// one and both admitted campaigns finish.
	third := submit(t, ts, testSpec("acme", 3))
	pollUntil(t, ts, first.ID, campaign.StateCompleted)
	pollUntil(t, ts, third.ID, campaign.StateCompleted)
	if h := getHealth(t, ts); h.Status != "ok" {
		t.Fatalf("a refused submit must not degrade the daemon: %+v", h)
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := campaign.Open(root, campaign.Options{DisableAutostart: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range reopened.List("") {
		ids = append(ids, st.ID)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ids, " "); got != first.ID+" "+third.ID {
		t.Fatalf("after a restart the registry lists %q, want %q", got, first.ID+" "+third.ID)
	}
}
