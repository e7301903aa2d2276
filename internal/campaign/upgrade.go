package campaign

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"

	"repro/internal/journal"
)

// upgrade rewrites a campaign directory of the earlier layout — spec.json,
// state.json and, once completed, result.json beside journal.wal — as the
// one journal file, removes the JSON files and reads the journal back
// (Campaign.read); a directory without a spec.json holds no record. It is
// the only reader of those files, and it runs once: an upgraded journal
// holds a spec. The structured result in result.json is recorded as its
// summary. The retired spec fields (workers, checkpoint_every, repeats,
// quarantine) are tolerated here and dropped from the record. A journal
// that cannot be opened fails the upgrade, and the campaign loads Failed
// with the files left as they are; a crash before the removals leaves
// JSON files that nothing reads again.
func (r *Registry) upgrade(c *Campaign) (record, error) {
	read := func(name string, v any) error {
		data, err := r.fs.ReadFile(filepath.Join(c.dir, name))
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		return err
	}
	var spec Spec
	err := read("spec.json", &spec)
	if errors.Is(err, os.ErrNotExist) {
		return record{}, nil
	}
	if err != nil {
		return record{}, err
	}
	// A campaign that died between its directory and its first state write
	// is a fresh Pending one.
	st := &persistedState{State: StatePending, Transitions: pendingSince(r.clock())}
	if err := read("state.json", st); err != nil && !errors.Is(err, os.ErrNotExist) {
		return record{}, err
	}
	rec := record{Spec: &spec, State: st}
	if st.State == StateCompleted {
		var res persistedResult
		if err := read("result.json", &res); err != nil {
			return record{}, err
		}
		rec.Result = res.current()
	}

	path := c.journalPath()
	jr, err := journal.OpenFS(r.fs, path, "")
	if errors.Is(err, os.ErrNotExist) {
		// Never started, canceled before it ran, or quarantined.
		jr, err = journal.CreateFS(r.fs, path, "")
	}
	if err != nil {
		return record{}, err
	}
	err = jr.AppendOwner(rec)
	if cerr := jr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return record{}, err
	}
	for _, name := range []string{"spec.json", "state.json", "result.json"} {
		if err := r.fs.Remove(filepath.Join(c.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return record{}, err
		}
	}
	r.syncDir(path)
	rec, _, err = c.read(nil)
	return rec, err
}
