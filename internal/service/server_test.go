package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
)

// testSpec is the same fast campaign the registry tests use: random search
// on helmholtz/a100, 16-sample dataset, a few virtual seconds of budget.
func testSpec(tenant string, seed int64) campaign.Spec {
	return campaign.Spec{
		Tenant:      tenant,
		Method:      "opentuner",
		Stencil:     "helmholtz",
		Arch:        "a100",
		DatasetSize: 16,
		BudgetS:     4,
		Seed:        seed,
	}
}

func newTestServer(t *testing.T, opts campaign.Options) (*httptest.Server, *campaign.Registry) {
	t.Helper()
	reg, err := campaign.Open(t.TempDir(), opts)
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
	return ts, reg
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("parse %s %s response %q: %v", method, url, raw.String(), err)
		}
	}
	return resp.StatusCode, raw.Bytes()
}

func submit(t *testing.T, ts *httptest.Server, spec campaign.Spec) SubmitResponse {
	t.Helper()
	var sr SubmitResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", spec, &sr)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", code, raw)
	}
	if sr.ID == "" {
		t.Fatal("submit returned no id")
	}
	return sr
}

// pollUntil polls the campaign until want (any terminal state fails fast).
func pollUntil(t *testing.T, ts *httptest.Server, id string, want campaign.State) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st CampaignStatus
		code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+id, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d body %s", id, code, raw)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("campaign %s landed in %s (reason %q), want %s", id, st.State, st.Reason, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, want)
	return CampaignStatus{}
}

func TestServiceHappyPath(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{Slots: 2})
	sr := submit(t, ts, testSpec("acme", 1))
	st := pollUntil(t, ts, sr.ID, campaign.StateCompleted)
	if !st.Found || st.BestKey == "" || st.Canonical == "" {
		t.Fatalf("completed campaign missing result fields: %+v", st)
	}
	if st.Evals == 0 || st.SpentS <= 0 {
		t.Fatalf("completed campaign has empty accounting: %+v", st)
	}

	var lr ListResponse
	code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns", nil, &lr)
	if code != http.StatusOK || len(lr.Campaigns) != 1 {
		t.Fatalf("list: code %d campaigns %d", code, len(lr.Campaigns))
	}

	var tr TenantsResponse
	code, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/tenants", nil, &tr)
	if code != http.StatusOK || len(tr.Tenants) != 1 || tr.Tenants[0].Tenant != "acme" {
		t.Fatalf("tenants: code %d body %+v", code, tr)
	}
	if tr.Tenants[0].SpentS <= 0 {
		t.Fatalf("tenant ledger recorded no spend: %+v", tr.Tenants[0])
	}
}

func TestServiceBadJSON(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{})
	for name, body := range map[string]string{
		"syntax":                   `{"tenant": "acme",`,
		"unknown-field":            `{"tenant": "acme", "warp_factor": 9}`,
		"retired-workers":          `{"tenant": "acme", "method": "opentuner", "stencil": "helmholtz", "arch": "a100", "budget_s": 4, "seed": 1, "workers": 4}`,
		"retired-checkpoint-every": `{"tenant": "acme", "method": "opentuner", "stencil": "helmholtz", "arch": "a100", "budget_s": 4, "seed": 1, "checkpoint_every": 5}`,
		"retired-repeats":          `{"tenant": "acme", "method": "opentuner", "stencil": "helmholtz", "arch": "a100", "budget_s": 4, "seed": 1, "repeats": 3}`,
		"retired-quarantine":       `{"tenant": "acme", "method": "opentuner", "stencil": "helmholtz", "arch": "a100", "budget_s": 4, "seed": 1, "quarantine": 1}`,
		"wrong-type":               `{"tenant": 42}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewBufferString(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("error body not JSON with an error field: %v %+v", err, er)
			}
		})
	}
}

func TestServiceInvalidSpec(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{})
	spec := testSpec("acme", 1)
	spec.Method = "gradient-descent"
	var er ErrorResponse
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", spec, &er)
	if code != http.StatusBadRequest || er.Error == "" {
		t.Fatalf("code %d error %q, want 400 with message", code, er.Error)
	}
}

func TestServiceUnknownCampaign(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/c999999"},
		{http.MethodPost, "/v1/campaigns/c999999/cancel"},
		{http.MethodPost, "/v1/campaigns/c999999/pause"},
		{http.MethodPost, "/v1/campaigns/c999999/resume"},
	} {
		var er ErrorResponse
		code, raw := doJSON(t, probe.method, ts.URL+probe.path, nil, &er)
		if code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d body %s, want 404", probe.method, probe.path, code, raw)
		}
	}
}

func TestServiceDoubleCancelConflicts(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{Slots: 1})
	spec := testSpec("acme", 2)
	spec.BudgetS = 400
	sr := submit(t, ts, spec)
	var ok OKResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns/"+sr.ID+"/cancel", nil, &ok)
	if code != http.StatusOK {
		t.Fatalf("first cancel: status %d body %s", code, raw)
	}
	pollUntil(t, ts, sr.ID, campaign.StateCanceled)
	var er ErrorResponse
	code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns/"+sr.ID+"/cancel", nil, &er)
	if code != http.StatusConflict || er.Error == "" {
		t.Fatalf("double cancel: status %d error %q, want 409 with message", code, er.Error)
	}
}

func TestServiceTenantIsolation(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{DisableAutostart: true})
	ids := map[string][]string{}
	for i, tenant := range []string{"red", "blue", "red", "green", "blue", "red"} {
		sr := submit(t, ts, testSpec(tenant, int64(i)))
		ids[tenant] = append(ids[tenant], sr.ID)
	}
	for tenant, want := range map[string]int{"red": 3, "blue": 2, "green": 1} {
		var lr ListResponse
		code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns?tenant="+tenant, nil, &lr)
		if code != http.StatusOK {
			t.Fatalf("list %s: status %d", tenant, code)
		}
		if len(lr.Campaigns) != want {
			t.Fatalf("tenant %s sees %d campaigns, want %d", tenant, len(lr.Campaigns), want)
		}
		for _, st := range lr.Campaigns {
			if st.Tenant != tenant {
				t.Fatalf("tenant %s list leaked campaign of %s", tenant, st.Tenant)
			}
		}
	}
}

func TestServiceBudgetExhaustion(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{TenantBudgetS: 6, DisableAutostart: true})
	submit(t, ts, testSpec("capped", 1))
	var er ErrorResponse
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", testSpec("capped", 2), &er)
	if code != http.StatusTooManyRequests || er.Error == "" {
		t.Fatalf("over-budget submit: status %d error %q, want 429", code, er.Error)
	}
	// A different tenant still gets in.
	submit(t, ts, testSpec("fresh", 3))
}

func TestServicePauseResumeRoundTrip(t *testing.T) {
	spec := testSpec("acme", 4)
	spec.BudgetS = 400
	goldenTS, _ := newTestServer(t, campaign.Options{Slots: 1})
	golden := pollUntil(t, goldenTS, submit(t, goldenTS, spec).ID, campaign.StateCompleted).Canonical

	ts, reg := newTestServer(t, campaign.Options{Slots: 1})
	// Hold the only measurement slot: the campaign cannot complete before
	// the pause lands.
	if err := reg.Scheduler().Acquire(context.Background(), "holder", 1); err != nil {
		t.Fatal(err)
	}
	sr := submit(t, ts, spec)
	pollUntil(t, ts, sr.ID, campaign.StateRunning)
	var ok OKResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns/"+sr.ID+"/pause", nil, &ok)
	if code != http.StatusOK {
		t.Fatalf("pause: status %d body %s", code, raw)
	}
	pollUntil(t, ts, sr.ID, campaign.StatePaused)
	reg.Scheduler().Release()
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns/"+sr.ID+"/resume", nil, &ok)
	if code != http.StatusOK {
		t.Fatalf("resume: status %d body %s", code, raw)
	}
	st := pollUntil(t, ts, sr.ID, campaign.StateCompleted)
	if st.Canonical == "" || st.Canonical != golden {
		t.Fatalf("pause/resume changed the result:\n%s\n%s", st.Canonical, golden)
	}
}

func TestServiceHealth(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestServiceMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{})
	resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tenants: %d, want 405", resp.StatusCode)
	}
}

func TestServiceListEmpty(t *testing.T) {
	ts, _ := newTestServer(t, campaign.Options{})
	var lr ListResponse
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns", nil, &lr)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if !bytes.Contains(raw, []byte(`"campaigns": []`)) {
		t.Fatalf("empty list must serialize as [], got %s", raw)
	}
}
