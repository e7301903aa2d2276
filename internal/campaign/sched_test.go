package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerVTimeAdvancesByInverseWeight(t *testing.T) {
	s := NewScheduler(4)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := s.Acquire(ctx, "heavy", 4); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	if err := s.Acquire(ctx, "light", 1); err != nil {
		t.Fatal(err)
	}
	s.Release()
	vt := s.VTimes()
	if vt["heavy"] != 1 { // 4 grants × 1/4
		t.Fatalf("heavy vtime %g, want 1", vt["heavy"])
	}
	if vt["light"] != 2 { // joined at min vtime (1) + one grant at weight 1
		t.Fatalf("light vtime %g, want 2", vt["light"])
	}
}

func TestSchedulerWeightedShares(t *testing.T) {
	s := NewScheduler(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const totalGrants, workers = 600, 4
	var granted atomic.Int64
	counts := map[string]*atomic.Int64{"heavy": {}, "light": {}}
	weights := map[string]float64{"heavy": 3, "light": 1}

	// backlogged reports whether every worker that holds no slot is blocked
	// in Acquire. A holder waits for it before releasing, so each grant is
	// chosen between two backlogged tenants (the regime WFQ reasons about),
	// not by which goroutines the runtime happened to run: a worker still
	// queued on s.mu at Acquire's entry is not in s.waiting yet.
	backlogged := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting["heavy"]+s.waiting["light"]+s.inUse == len(weights)*workers
	}
	var wg sync.WaitGroup
	for tenant, w := range weights {
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(tenant string, w float64) {
				defer wg.Done()
				for {
					if err := s.Acquire(ctx, tenant, w); err != nil {
						return
					}
					for !backlogged() && ctx.Err() == nil {
						runtime.Gosched()
					}
					n := granted.Add(1)
					counts[tenant].Add(1)
					s.Release()
					if n >= totalGrants {
						cancel()
						return
					}
				}
			}(tenant, w)
		}
	}
	wg.Wait()

	heavy, light := counts["heavy"].Load(), counts["light"].Load()
	if heavy+light < totalGrants {
		t.Fatalf("only %d grants made, want >= %d", heavy+light, totalGrants)
	}
	// WFQ with both tenants continuously backlogged keeps vtimes aligned, so
	// grants divide ~3:1. Allow generous slack for scheduling noise.
	ratio := float64(heavy) / float64(light)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("grant ratio heavy/light = %.2f (heavy=%d light=%d), want ≈3", ratio, heavy, light)
	}
}

func TestSchedulerNoStarvation(t *testing.T) {
	s := NewScheduler(1)
	ctx := context.Background()
	const perTenant = 40
	tenants := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	done := make([]atomic.Int64, len(tenants))
	for i, tenant := range tenants {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			for n := 0; n < perTenant; n++ {
				if err := s.Acquire(ctx, tenant, 1); err != nil {
					t.Errorf("tenant %s: %v", tenant, err)
					return
				}
				done[i].Add(1)
				s.Release()
			}
		}(i, tenant)
	}
	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	select {
	case <-fin:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler starved a tenant (timeout)")
	}
	for i, tenant := range tenants {
		if got := done[i].Load(); got != perTenant {
			t.Errorf("tenant %s finished %d of %d", tenant, got, perTenant)
		}
	}
}

func TestSchedulerLatecomerJoinsAtFrontier(t *testing.T) {
	s := NewScheduler(1)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := s.Acquire(ctx, "incumbent", 1); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	// A latecomer must not owe 100 grants of catch-up debt — nor get 100
	// grants of monopoly. It starts at the incumbent's frontier.
	if err := s.Acquire(ctx, "late", 1); err != nil {
		t.Fatal(err)
	}
	s.Release()
	vt := s.VTimes()
	if vt["late"] != vt["incumbent"]+1 {
		t.Fatalf("latecomer vtime %g, want incumbent %g + 1", vt["late"], vt["incumbent"])
	}
}

// TestSchedulerAcquireHonorsCancel queues waiters of several tenants behind
// held slots and cancels them from several goroutines: some before they
// call Acquire, some while they race to block, and some once they wait in
// cond.Wait. Every one must return context.Canceled.
func TestSchedulerAcquireHonorsCancel(t *testing.T) {
	const slots, tenants, perGroup = 2, 3, 6
	s := NewScheduler(slots)
	for i := 0; i < slots; i++ {
		if err := s.Acquire(context.Background(), "holder", 1); err != nil {
			t.Fatal(err)
		}
	}
	type waiter struct {
		cancel context.CancelFunc
		errc   chan error
	}
	start := func(i int) waiter {
		ctx, cancel := context.WithCancel(context.Background())
		w := waiter{cancel, make(chan error, 1)}
		go func() { w.errc <- s.Acquire(ctx, fmt.Sprintf("t%d", i%tenants), float64(1+i%tenants)) }()
		return w
	}
	// cancelAll cancels ws from tenants goroutines, each taking every
	// tenants-th waiter.
	cancelAll := func(ws []waiter) {
		var wg sync.WaitGroup
		for g := 0; g < tenants; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(ws); i += tenants {
					ws[i].cancel()
				}
			}(g)
		}
		wg.Wait()
	}
	expectCanceled := func(group string, ws []waiter) {
		t.Helper()
		for i, w := range ws {
			select {
			case err := <-w.errc:
				if err != context.Canceled {
					t.Fatalf("%s waiter %d: got %v, want context.Canceled", group, i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s waiter %d: cancelled Acquire never returned", group, i)
			}
		}
	}

	var before, racing, blocked []waiter
	for i := 0; i < perGroup; i++ {
		w := start(i)
		w.cancel()
		before = append(before, w)
		racing = append(racing, start(i))
		blocked = append(blocked, start(i))
	}
	cancelAll(racing)
	expectCanceled("before", before)
	expectCanceled("racing", racing)

	// Holding s.mu, a counted waiter can only be inside cond.Wait.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		n := 0
		for _, c := range s.waiting {
			n += c
		}
		s.mu.Unlock()
		if n == len(blocked) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters blocked", n, len(blocked))
		}
		runtime.Gosched()
	}
	cancelAll(blocked)
	expectCanceled("blocked", blocked)

	for i := 0; i < slots; i++ {
		s.Release()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inUse != 0 || len(s.waiting) != 0 {
		t.Fatalf("after cancellation: inUse=%d waiting=%v", s.inUse, s.waiting)
	}
}
