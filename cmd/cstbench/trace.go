package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from the
// benchmark's own code around its calls into the program, kept in memory and
// written out when the benchmark ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 only for a phase's root span
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"` // campaign id or run id the span belongs to
	Start  int64  `json:"start_ns"`      // since the trace began
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // disk writes only
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer records nothing, so untraced runs pay
// one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children recorded before their parent ends can
// name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span; an id of 0 is assigned here.
func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// runSpans name the spans that cover one whole run.
var runSpans = map[string]bool{"campaign": true, "layers.campaign": true, "layers.tune": true}

// snapshot returns the spans recorded so far. A disk span knows its run only
// from the file path, and a campaign's first file operations happen before
// the load generator learns the campaign's id, so disk spans are recorded
// under their phase and moved here under the span of their run.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byRun := map[string]int64{}
	for _, s := range spans {
		if runSpans[s.Name] && s.Run != "" {
			byRun[s.Run] = s.ID
		}
	}
	for i := range spans {
		if p, ok := byRun[spans[i].Run]; ok && strings.HasPrefix(spans[i].Name, "disk.") {
			spans[i].Parent = p
		}
	}
	return spans
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// traceFile is the JSON written by a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = ms(d)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfMS: self, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
