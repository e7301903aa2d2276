package campaign

import (
	"errors"
	"testing"
)

// checkInvariant asserts the ledger invariant SpentS + ReservedS <= BudgetS
// for every metered tenant.
func checkInvariant(t *testing.T, l *Ledgers) {
	t.Helper()
	for _, s := range l.Snapshots() {
		if s.BudgetS > 0 && s.SpentS+s.ReservedS > s.BudgetS+1e-9 {
			t.Fatalf("tenant %s overspent: spent %g + reserved %g > budget %g",
				s.Tenant, s.SpentS, s.ReservedS, s.BudgetS)
		}
	}
}

func TestLedgerReserveSettle(t *testing.T) {
	l := NewLedgers(10)
	if err := l.Reserve("a", 4, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("a", 4, false); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, l)
	if err := l.Reserve("a", 4, false); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("third reservation should exhaust the budget, got %v", err)
	}
	// Settling at under-spend refunds headroom for a new admission.
	l.Settle("a", 4, 1.5)
	checkInvariant(t, l)
	if err := l.Reserve("a", 4, false); err != nil {
		t.Fatalf("refunded headroom refused: %v", err)
	}
	snap := l.Snapshot("a")
	if snap.SpentS != 1.5 || snap.ReservedS != 8 {
		t.Fatalf("snapshot %+v, want spent 1.5 reserved 8", snap)
	}
}

func TestLedgerSettleCapsAtReservation(t *testing.T) {
	l := NewLedgers(10)
	if err := l.Reserve("a", 5, false); err != nil {
		t.Fatal(err)
	}
	// The engine may overshoot a campaign budget by one episode; the tenant
	// ledger must never see more than the reservation.
	l.Settle("a", 5, 7.2)
	snap := l.Snapshot("a")
	if snap.SpentS != 5 {
		t.Fatalf("settled spend %g, want capped at reservation 5", snap.SpentS)
	}
	checkInvariant(t, l)
}

func TestLedgerForceBypassesAdmission(t *testing.T) {
	l := NewLedgers(3)
	if err := l.Reserve("a", 100, true); err != nil {
		t.Fatalf("forced restart re-admission refused: %v", err)
	}
	if err := l.Reserve("a", 1, false); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("unforced reservation should now be refused, got %v", err)
	}
}

// setBudget overrides one tenant's budget; 0 makes the tenant unmetered.
// Shrinking a budget below the tenant's current position is allowed — it
// refuses future admissions but never claws back admitted work.
func (l *Ledgers) setBudget(tenant string, budgetS float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.tenantLocked(tenant)
	a.budgetS = budgetS
	a.hasBudget = budgetS > 0
}

func TestLedgerUnmeteredTenant(t *testing.T) {
	l := NewLedgers(0)
	for i := 0; i < 50; i++ {
		if err := l.Reserve("free", 1000, false); err != nil {
			t.Fatalf("unmetered tenant refused: %v", err)
		}
	}
	l.setBudget("free", 1)
	if err := l.Reserve("free", 1, false); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("newly-metered tenant should be refused, got %v", err)
	}
}

func TestLedgerRestoreSpent(t *testing.T) {
	l := NewLedgers(10)
	l.RestoreSpent("a", 6)
	if err := l.Reserve("a", 5, false); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("restored spend should count against admissions, got %v", err)
	}
	if err := l.Reserve("a", 3, false); err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, l)
}

func TestLedgerSnapshotsSorted(t *testing.T) {
	l := NewLedgers(0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		l.RestoreSpent(name, 1)
	}
	snaps := l.Snapshots()
	if len(snaps) != 3 || snaps[0].Tenant != "alpha" || snaps[1].Tenant != "mid" || snaps[2].Tenant != "zeta" {
		t.Fatalf("snapshots not name-sorted: %+v", snaps)
	}
}
