package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

// pollEvery is how long a client waits between status polls.
const pollEvery = 5 * time.Millisecond

// datasetSize is every run's offline dataset size.
const datasetSize = 64

// daemon is one cstunerd equivalent served in-process: the campaign registry
// behind the HTTP handler on an httptest server, with a client that opens
// at most two connections — one per load-generating goroutine.
type daemon struct {
	reg    *campaign.Registry
	srv    *httptest.Server
	client *http.Client
	tr     *tracer
	phase  int64 // root span of the phase the daemon serves
}

// openDaemon opens the registry at root through the modelled disk, serves it
// and waits until it answers.
func openDaemon(root string, withStore bool, tr *tracer, phase int64) (*daemon, error) {
	reg, err := campaign.Open(root, campaign.Options{Slots: 2, EnableStore: withStore, FS: &disk{root: root, tr: tr, phase: phase}})
	if err != nil {
		return nil, err
	}
	d := &daemon{
		reg:    reg,
		srv:    httptest.NewServer(service.New(reg)),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		tr:     tr,
		phase:  phase,
	}
	var h service.HealthResponse
	if err := d.call(http.MethodGet, "/v1/healthz", nil, &h, "http.healthz", phase); err != nil {
		_ = d.close() // the readiness failure is the error worth reporting
		return nil, err
	}
	return d, nil
}

// close stops serving, then closes the registry (the order cstunerd uses).
func (d *daemon) close() error {
	d.srv.Close()
	d.client.CloseIdleConnections()
	return d.reg.Close()
}

// call sends one request and decodes a 2xx answer into out. The request is
// recorded as a span named name under parent.
func (d *daemon) call(method, path string, body, out any, name string, parent int64) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.srv.URL+path, rd)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		d.tr.add(span{Name: name, Parent: parent, Err: true}, start, time.Now())
		return err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing to flush
	ok := resp.StatusCode/100 == 2
	d.tr.add(span{Name: name, Parent: parent, Err: !ok}, start, time.Now())
	switch {
	case err != nil:
		return fmt.Errorf("%s %s: %w", method, path, err)
	case !ok:
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// campaign submits one run and polls it to a terminal state: one closed-loop
// request of the daemon workloads.
func (d *daemon) campaign(r run, budgetS float64) result {
	res := result{Run: r}
	id := d.tr.id()
	start := time.Now()
	spec := campaign.Spec{
		Tenant: r.Tenant, Weight: r.Weight, Method: r.Method, Stencil: r.Stencil, Arch: r.Arch,
		DatasetSize: datasetSize, BudgetS: budgetS, Seed: r.Seed, WarmStart: r.WarmStart,
	}
	var sub service.SubmitResponse
	if res.Err = d.call(http.MethodPost, "/v1/campaigns", spec, &sub, "http.submit", id); res.Err == nil {
		var st campaign.Status
		for {
			time.Sleep(pollEvery)
			if res.Err = d.call(http.MethodGet, "/v1/campaigns/"+sub.ID, nil, &st, "http.poll", id); res.Err != nil || st.State.Terminal() {
				break
			}
		}
		res.State, res.Found, res.BestKey, res.BestMS = st.State, st.Found, st.BestKey, st.BestMS
		res.Canonical, res.History = st.Canonical, st.History
		res.StoreHits, res.StoreMiss = st.StoreHits, st.StoreMisses
	}
	end := time.Now()
	res.Latency = end.Sub(start).Seconds()
	d.tr.add(span{ID: id, Parent: d.phase, Name: "campaign", Run: sub.ID, Err: res.Err != nil}, start, end)
	return res
}

// pass runs one list of campaigns through the daemon.
func (d *daemon) pass(p *plan, runs []run, budgetS float64) []result {
	return drive(runs, p.Clients, func(r run) result { return d.campaign(r, budgetS) })
}
