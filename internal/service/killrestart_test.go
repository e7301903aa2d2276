package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
)

// The kill/restart end-to-end test runs a real server in a child process
// (this same test binary re-exec'd with childRootEnv set), SIGKILLs it with
// ~100 campaigns in flight once a heavy one is measuring, then reopens the
// registry and requires every campaign to finish with a report
// byte-identical to an uninterrupted run of the same spec.
const (
	childRootEnv  = "CSTUNERD_TEST_CHILD_ROOT"
	childSlotsEnv = "CSTUNERD_TEST_CHILD_SLOTS"
	addrFile      = "addr.txt"
)

func TestMain(m *testing.M) {
	if root := os.Getenv(childRootEnv); root != "" {
		runChildServer(root)
		return
	}
	os.Exit(m.Run())
}

// runChildServer is the child-process body: a registry-backed HTTP server
// whose address is published into the registry root. It never exits on its
// own — the parent SIGKILLs it.
func runChildServer(root string) {
	slots := 4
	if s := os.Getenv(childSlotsEnv); s != "" {
		fmt.Sscanf(s, "%d", &slots)
	}
	reg, err := campaign.Open(root, campaign.Options{Slots: slots})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: open:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: listen:", err)
		os.Exit(2)
	}
	tmp := filepath.Join(root, addrFile+".tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "child: addr:", err)
		os.Exit(2)
	}
	if err := os.Rename(tmp, filepath.Join(root, addrFile)); err != nil {
		fmt.Fprintln(os.Stderr, "child: addr:", err)
		os.Exit(2)
	}
	if err := http.Serve(ln, New(reg)); err != nil {
		fmt.Fprintln(os.Stderr, "child: serve:", err)
		os.Exit(2)
	}
}

// startChild launches the server child on root and waits for its address.
func startChild(t *testing.T, root string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childRootEnv+"="+root, childSlotsEnv+"=4")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(filepath.Join(root, addrFile))
		if err == nil && len(data) > 0 {
			return cmd, string(data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("child server never published its address")
	return nil, ""
}

func TestServiceKillRestartByteIdentical(t *testing.T) {
	total := 120
	if testing.Short() {
		total = 16
	}
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	const seeds = 12 // distinct campaign identities; fixtures and goldens shared

	// Golden pass: every distinct spec identity run uninterrupted in its own
	// registry. Tenant and weight are fairness metadata — they never touch
	// measurement results — so goldens are keyed by seed alone.
	goldens := map[int64]string{}
	{
		reg, err := campaign.Open(t.TempDir(), campaign.Options{Slots: 4})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		var specSeeds []int64
		for s := int64(0); s < seeds; s++ {
			c, err := reg.Submit(killSpec("golden", s))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c.ID)
			specSeeds = append(specSeeds, s)
		}
		for i, id := range ids {
			c, err := reg.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, c)
			if c.State() != campaign.StateCompleted {
				t.Fatalf("golden campaign seed %d ended %s", specSeeds[i], c.State())
			}
			_, canonical, _ := c.Result()
			goldens[specSeeds[i]] = canonical
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Live pass: a real server process, hundreds of campaigns, SIGKILL.
	root := t.TempDir()
	cmd, addr := startChild(t, root)
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	type sub struct {
		id   string
		seed int64
	}
	var subs []sub
	for i := 0; i < total; i++ {
		spec := killSpec(tenants[i%len(tenants)], int64(i%seeds))
		spec.Weight = float64(1 + i%3)
		var sr SubmitResponse
		code, raw, err := doJSONClient(client, http.MethodPost, base+"/v1/campaigns", spec, &sr)
		if err != nil || code != http.StatusCreated {
			t.Fatalf("submit %d: code %d err %v body %s", i, code, err, raw)
		}
		subs = append(subs, sub{id: sr.ID, seed: int64(i % seeds)})
	}
	// Kill point: as soon as a heavy campaign is running with accounted
	// episodes, so at least one campaign is always cut mid-run. Early light
	// campaigns have completed by then, and late submissions are pending.
	waitHeavyRunning(t, client, base)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	// Restart: reopen the same root in-process. The scan must resume every
	// interrupted campaign through journal replay.
	if err := os.Remove(filepath.Join(root, addrFile)); err != nil {
		t.Fatal(err)
	}
	reg, err := campaign.Open(root, campaign.Options{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	resumed := 0
	for _, s := range subs {
		c, err := reg.Get(s.id)
		if err != nil {
			t.Fatalf("campaign %s lost across the kill: %v", s.id, err)
		}
		waitTerminal(t, c)
		if c.State() != campaign.StateCompleted {
			t.Errorf("campaign %s ended %s (reason %q), want completed", s.id, c.State(), c.Status().Reason)
			continue
		}
		if st := c.Status(); st.Replayed > 0 {
			resumed++
		}
		_, canonical, ok := c.Result()
		if !ok {
			t.Errorf("campaign %s completed without a result", s.id)
			continue
		}
		if canonical != goldens[s.seed] {
			t.Errorf("campaign %s (seed %d): canonical differs from uninterrupted run\n got: %s\nwant: %s",
				s.id, s.seed, canonical, goldens[s.seed])
		}
	}
	t.Logf("%d/%d campaigns resumed journaled episodes after the kill", resumed, total)
	if resumed == 0 {
		t.Error("no campaign replayed journaled work: the kill never interrupted anything, so the test proved nothing about recovery")
	}

	// Per-tenant ledgers must never overspend, and with everything settled
	// no reservation may dangle.
	for _, snap := range reg.Ledgers().Snapshots() {
		if snap.BudgetS > 0 && snap.SpentS+snap.ReservedS > snap.BudgetS+1e-9 {
			t.Errorf("tenant %s overspent: %+v", snap.Tenant, snap)
		}
		if snap.ReservedS != 0 {
			t.Errorf("tenant %s has dangling reservation: %+v", snap.Tenant, snap)
		}
	}
}

// killSpec is the e2e campaign. Seeds below 8 are light (~30 evals, done in
// tens of milliseconds); seeds 8+ are heavy (~2,000 evals) and are still
// running when the kill lands, so the restart genuinely exercises journal
// replay rather than just reloading finished results.
func killSpec(tenant string, seed int64) campaign.Spec {
	budget := 50.0
	if seed >= 8 {
		budget = 3000
	}
	return campaign.Spec{
		Tenant:      tenant,
		Method:      "opentuner",
		Stencil:     "helmholtz",
		Arch:        "a100",
		DatasetSize: 16,
		BudgetS:     budget,
		Seed:        seed,
	}
}

// waitHeavyRunning polls the campaign list until a heavy campaign (seed 8+)
// is running and has accounted at least one episode, which its journal then
// holds.
func waitHeavyRunning(t *testing.T, client *http.Client, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var lr ListResponse
		code, raw, err := doJSONClient(client, http.MethodGet, base+"/v1/campaigns", nil, &lr)
		if err != nil || code != http.StatusOK {
			t.Fatalf("list: code %d err %v body %s", code, err, raw)
		}
		for _, st := range lr.Campaigns {
			if st.Seed >= 8 && st.State == campaign.StateRunning && st.Evals > 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no heavy campaign started measuring")
}

func waitTerminal(t *testing.T, c *campaign.Campaign) {
	t.Helper()
	deadline := time.Now().Add(300 * time.Second)
	for time.Now().Before(deadline) {
		if c.State().Terminal() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached a terminal state (stuck in %s)", c.ID, c.State())
}

// doJSONClient is doJSON against an explicit client and URL (the child
// server is not an httptest.Server).
func doJSONClient(client *http.Client, method, url string, body any, out any) (int, []byte, error) {
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, err
		}
	}
	return resp.StatusCode, raw, nil
}
