// Package am is the atomicmix fixture: fields accessed via sync/atomic in
// both forms (function-form on a plain int64, typed atomic values) mixed
// with plain accesses, plus the sanctioned constructor / sharing idioms.
package am

import "sync/atomic"

type counter struct {
	hits  int64        // accessed via atomic.AddInt64 — function form
	gauge atomic.Int64 // typed atomic
	name  string       // never atomic: plain access is fine
}

// NewCounter is constructor scope: plain writes are sanctioned.
func NewCounter(name string) *counter {
	c := &counter{name: name}
	c.hits = 0
	return c
}

// bump is the sanctioned function-form access that registers hits.
func (c *counter) bump() {
	atomic.AddInt64(&c.hits, 1)
}

// badRead reads hits without the atomic API.
func (c *counter) badRead() int64 {
	return c.hits // want atomicmix "field am.hits is accessed via sync/atomic elsewhere"
}

// badWrite resets hits with a plain store.
func (c *counter) badWrite() {
	c.hits = 0 // want atomicmix "field am.hits is accessed via sync/atomic elsewhere"
}

// badReset overwrites the typed atomic with a literal, which go vet's
// copylocks accepts.
func (c *counter) badReset() {
	c.gauge = atomic.Int64{} // want atomicmix "copying or reassigning the value bypasses its atomicity"
}

// vetCopy copies the typed atomic by value: go vet's copylocks reports it,
// so atomicmix does not.
func (c *counter) vetCopy() atomic.Int64 {
	return c.gauge
}

// okLoad uses the typed atomic's methods.
func (c *counter) okLoad() int64 {
	return c.gauge.Load()
}

// share passes the typed atomic by address — the sanctioned sharing idiom.
func (c *counter) share() *atomic.Int64 {
	return &c.gauge
}

// okName reads the never-atomic field plainly.
func (c *counter) okName() string {
	return c.name
}

// suppressed carries an allow for a deliberate racy fast-path read.
func (c *counter) suppressed() int64 {
	return c.hits //cstlint:allow atomicmix(fixture: deliberate racy read under test)
}
