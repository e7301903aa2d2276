// Package lo is the lockorder fixture: a cycle between alpha.mu and
// beta.mu, contradictions of declared orders (direct, through a call chain
// and through a generic method), and properly ordered/suppressed negatives. Each case uses its own
// lock pair — a contradiction plus a correct use of the same pair would be
// a real cycle, not the case under test.
package lo

import "sync"

//cstlint:lockorder gamma.mu < delta.mu
//cstlint:lockorder eps.mu < zeta.mu
//cstlint:lockorder kappa.mu < lambda.mu
//cstlint:lockorder theta.mu < omega.mu
//cstlint:lockorder boxed.mu < holder.mu

type alpha struct{ mu sync.Mutex }

type beta struct{ mu sync.Mutex }

// lockAB acquires alpha.mu then (via lockB) beta.mu: the A -> B half of the
// cycle. The component finding lands on the first in-cycle edge's witness —
// this call site.
func lockAB(a *alpha, b *beta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockB(b) // want lockorder "potential deadlock: lock-order cycle among alpha.mu, beta.mu"
}

func lockB(b *beta) {
	b.mu.Lock()
	defer b.mu.Unlock()
}

// lockBA acquires beta.mu then alpha.mu directly: the B -> A half.
func lockBA(a *alpha, b *beta) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
}

type gamma struct{ mu sync.Mutex }

type delta struct{ mu sync.Mutex }

// wrongOrder acquires gamma.mu while delta.mu is held although gamma.mu is
// declared to come first.
func wrongOrder(g *gamma, d *delta) {
	d.mu.Lock()
	defer d.mu.Unlock()
	g.mu.Lock() // want lockorder "contradicting the declared order gamma.mu < delta.mu"
	defer g.mu.Unlock()
}

// disjoint takes the same pair without nesting — no edges, no finding.
func disjoint(g *gamma, d *delta) {
	d.mu.Lock()
	d.mu.Unlock()
	g.mu.Lock()
	g.mu.Unlock()
}

type eps struct{ mu sync.Mutex }

type zeta struct{ mu sync.Mutex }

// viaChain holds zeta.mu across a call that eventually takes eps.mu — the
// contradiction is only visible through the call graph.
func viaChain(e *eps, z *zeta) {
	z.mu.Lock()
	defer z.mu.Unlock()
	helperOne(e) // want lockorder "contradicting the declared order eps.mu < zeta.mu"
}

func helperOne(e *eps) {
	helperTwo(e)
}

func helperTwo(e *eps) {
	e.mu.Lock()
	defer e.mu.Unlock()
}

type kappa struct{ mu sync.Mutex }

type lambda struct{ mu sync.Mutex }

// rightOrder nests in the declared order: an edge, but no finding.
func rightOrder(k *kappa, l *lambda) {
	k.mu.Lock()
	defer k.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
}

type holder struct{ mu sync.Mutex }

type boxed[V any] struct {
	mu sync.Mutex
	v  V
}

func (b *boxed[V]) set(v V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.v = v
}

// viaGeneric reaches boxed.mu through a method of an instantiated generic
// type: the call graph must resolve it to the generic declaration.
func viaGeneric(h *holder, b *boxed[int]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b.set(1) // want lockorder "contradicting the declared order boxed.mu < holder.mu"
}

type theta struct{ mu sync.Mutex }

type omega struct{ mu sync.Mutex }

// suppressed contradicts the theta/omega order but carries an allow.
func suppressed(t *theta, i *omega) {
	i.mu.Lock()
	defer i.mu.Unlock()
	t.mu.Lock() //cstlint:allow lockorder(fixture: intentional inversion under test)
	defer t.mu.Unlock()
}
