package campaign

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/vfs"
)

// FuzzOwnerRecordFastPath checks decodeRecord against encoding/json in both
// directions. Whenever the fast path accepts a payload, json.Unmarshal
// accepts it too and reads an equal record. And whenever json.Unmarshal
// reads a record of today's form whose strings are printable ASCII and
// newlines, the bytes json.Marshal writes for it take the fast path, so a
// record the registry wrote never falls back.
func FuzzOwnerRecordFastPath(f *testing.F) {
	// The owner records of the committed testdata journals.
	paths, err := filepath.Glob(filepath.Join("testdata", "*", "*", "journal.wal"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata journals: %v", err)
	}
	for _, p := range paths {
		recs, _, err := journal.Scan(vfs.OS, p, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, raw := range recs {
			f.Add([]byte(raw))
		}
	}
	// Records in today's form, a few escapes and what only the fallback
	// reads.
	spec := Spec{Tenant: "acme", Weight: 2, Method: "cstuner", Stencil: "helmholtz", Arch: "a100", DatasetSize: 64,
		BudgetS: 400, Seed: -3, WarmStart: 4, WarmKeys: []string{"bx=32,by=4", "bx=64,by=2"}, Fingerprint: "cstuner-campaign|v1|seed=-3"}
	state := persistedState{State: StateCompleted, SettledS: 40.19588723694944, Transitions: []Transition{
		{To: StatePending, AtUnixNano: 1},
		{From: StatePending, To: StateFailed, AtUnixNano: 1e18, Reason: `prepare: "x" <a> & b` + "\n  journal: fp"},
	}}
	sum := summary{Found: true, BestKey: "bx=32,by=4", BestMS: 3.0068784344584887, SpentS: 400.5, Evals: 26, Replayed: 3,
		StoreHits: 1, StoreMisses: 2, WarmStartSeeds: 4}
	for _, rec := range []record{
		{},
		{Spec: &spec, State: &state},
		{Spec: &Spec{Tenant: "t", Method: "garvey", Stencil: "cheby", Arch: "v100", BudgetS: 1e-7}},
		{State: &persistedState{State: StatePending, Transitions: []Transition{}}},
		{State: &state, Result: &persistedResult{Canonical: "best=map[bx:32] bestms=3.0068\nstats={Evaluations:26}\ntraj[0]=1.5,1,3\n", Summary: &sum}},
		{State: &state, Result: &persistedResult{Canonical: "tab\there\r\\"}},
	} {
		img, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	for _, s := range []string{
		`{"result":{"canonical":"c","result":{"Best":null,"BestMS":1,"Found":true,"Stats":{},"Replayed":0}}}`,
		`{"state":{"state":"pending","transitions":null}}`,
		`{"spec":null}`,
		`{ "spec" : { "tenant" : "a" } }`,
		`{"state":{"transitions":[],"state":"paused"}}`,
		`{"SPEC":{"Tenant":"a"}}`,
		`{"spec":{"tenant":"a","extra":1}}`,
		`{"spec":{"tenant":"a","tenant":"b"}}`,
		`{"spec":{"tenant":"aé\/"}}`,
		"{\"spec\":{\"tenant\":\"caf\xc3\xa9\"}}",
		"{\"spec\":{\"tenant\":\"\xff\"}}",
		`{"spec":{"seed":1.5}}`,
		`{"spec":{"seed":1e2}}`,
		`{"spec":{"seed":9223372036854775808}}`,
		`{"spec":{"budget_s":1e400}}`,
		`{"spec":{"budget_s":01}}`,
		`{"spec":{"budget_s":-0}}`,
		`{"spec":{"warm_keys":[]}}`,
		`{"result":{"summary":{"found":1}}}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var want record
		jsonErr := json.Unmarshal(payload, &want)
		if got, ok := decodeRecord(payload); ok && (jsonErr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("fast path read %q as %s; json.Unmarshal as %s (%v)", payload, show(got), show(want), jsonErr)
		}
		if jsonErr != nil || (want.Result != nil && want.Result.Legacy != nil) || !printableRecord(want) {
			return
		}
		img, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var again record
		if err := json.Unmarshal(img, &again); err != nil {
			t.Fatal(err)
		}
		if got, ok := decodeRecord(img); !ok || !reflect.DeepEqual(got, again) {
			t.Fatalf("json.Marshal's image %q missed the fast path (%v) or read %s", img, ok, show(got))
		}
	})
}

// show renders a record for a failure message.
func show(r record) string {
	b, _ := json.Marshal(r) // a record always marshals
	return string(b)
}

// printableRecord reports whether every string of r is printable ASCII or
// a newline.
func printableRecord(r record) bool {
	var strs []string
	if s := r.Spec; s != nil {
		strs = append(strs, s.Tenant, s.Method, s.Stencil, s.Arch, s.Fingerprint)
		strs = append(strs, s.WarmKeys...)
	}
	if s := r.State; s != nil {
		strs = append(strs, string(s.State))
		for _, tr := range s.Transitions {
			strs = append(strs, string(tr.From), string(tr.To), tr.Reason)
		}
	}
	if r.Result != nil {
		strs = append(strs, r.Result.Canonical)
		if r.Result.Summary != nil {
			strs = append(strs, r.Result.Summary.BestKey)
		}
	}
	for _, s := range strs {
		for _, c := range []byte(s) {
			if (c < 0x20 || c > 0x7e) && c != '\n' {
				return false
			}
		}
	}
	return true
}
