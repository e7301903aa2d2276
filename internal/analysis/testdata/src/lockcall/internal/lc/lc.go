// Package lc is lockorder's calls-under-lock fixture: objective
// measurements and user callbacks invoked inside Lock/Unlock regions,
// defer-Unlock regions, and *Locked-convention functions, plus after-unlock
// and local-closure negatives.
package lc

import "sync"

type span struct{}

type obj struct{}

func (obj) Measure(k int) (float64, error) { return 0, nil }
func (obj) Space() *span                   { return nil }
func (obj) Run(k int) error                { return nil }

type engine struct {
	mu       sync.Mutex
	o        obj
	callback func(int)
}

func (e *engine) UnderLock(k int) {
	e.mu.Lock()
	_, _ = e.o.Measure(k) // want lockorder "objective e.o.Measure"
	e.mu.Unlock()
}

func (e *engine) DeferUnlock(k int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.o.Run(k) // want lockorder "objective e.o.Run"
}

func (e *engine) CallbackUnderLock(k int) {
	e.mu.Lock()
	e.callback(k) // want lockorder "callback field e.callback"
	e.mu.Unlock()
}

func (e *engine) ParamUnderLock(f func() error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = f() // want lockorder "callback parameter f"
}

func (e *engine) bestLocked(k int) float64 {
	v, _ := e.o.Measure(k) // want lockorder "objective e.o.Measure"
	return v
}

// AfterUnlock measures outside the critical section: no finding.
func (e *engine) AfterUnlock(k int) {
	e.mu.Lock()
	e.mu.Unlock()
	_, _ = e.o.Measure(k)
}

// LocalClosure calls this function's own code under the lock: not flagged.
func (e *engine) LocalClosure(k int) {
	add := func(int) {}
	e.mu.Lock()
	add(k)
	e.mu.Unlock()
}

func (e *engine) Suppressed(k int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//cstlint:allow lockorder(fixture demonstrates suppression)
	e.callback(k)
}

type store struct {
	rw sync.RWMutex
	o  obj
}

// TryLockHeld measures inside a TryLock success branch: the analyzer
// assumes the acquisition succeeds, so this is a locked region.
func (s *store) TryLockHeld(k int) {
	if s.rw.TryLock() {
		defer s.rw.Unlock()
		_, _ = s.o.Measure(k) // want lockorder "objective s.o.Measure"
	}
}

// ReadHeld measures under the read side; the interval is keyed separately
// from the write side.
func (s *store) ReadHeld(k int) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, _ = s.o.Measure(k) // want lockorder "while s.rw (read) is held"
}

// ReadReleased pairs RLock with RUnlock correctly: a write-side Unlock must
// not close a read interval, and the measurement runs lock-free.
func (s *store) ReadReleased(k int) {
	s.rw.RLock()
	s.rw.RUnlock()
	_, _ = s.o.Measure(k)
}

// LocalMutex measures under a function-local mutex: it has no lock class and
// stays out of the acquisition graph, but it still opens a held interval.
func (e *engine) LocalMutex(k int) {
	var mu sync.Mutex
	mu.Lock()
	_, _ = e.o.Measure(k) // want lockorder "objective e.o.Measure invoked while mu is held"
	mu.Unlock()
}
