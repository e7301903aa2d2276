package campaign

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrTenantBudget is returned when admitting a campaign would take a
// tenant's reservations past its virtual budget.
var ErrTenantBudget = errors.New("campaign: tenant budget exhausted")

// LedgerSnapshot is one tenant's budget position. All quantities are
// virtual seconds on the engine's cost model, the same unit campaign
// budgets use. BudgetS == 0 means the tenant is unmetered.
type LedgerSnapshot struct {
	Tenant    string  `json:"tenant"`
	BudgetS   float64 `json:"budget_s"`
	ReservedS float64 `json:"reserved_s"`
	SpentS    float64 `json:"spent_s"`
}

type tenantAcct struct {
	budgetS   float64 // 0 = unmetered
	reservedS float64
	spentS    float64
}

// Ledgers is the per-tenant virtual-budget accounting layer on top of the
// engine's per-campaign budgets. Admission is by reservation: submitting a
// campaign reserves its full budget, and completion settles the reservation
// into actual spend (capped at the reservation — the engine may overshoot a
// campaign budget by at most one episode's cost, and that overshoot is
// accounted to the campaign, never to the tenant). The ledger invariant,
// which the stress tests assert continuously, is therefore
//
//	SpentS + ReservedS <= BudgetS
//
// for every metered tenant, at every instant.
type Ledgers struct {
	mu             sync.Mutex
	defaultBudgetS float64 // 0 = unmetered by default
	acct           map[string]*tenantAcct
}

// NewLedgers returns a ledger set whose tenants default to defaultBudgetS
// virtual seconds each (0 = unmetered).
func NewLedgers(defaultBudgetS float64) *Ledgers {
	return &Ledgers{defaultBudgetS: defaultBudgetS, acct: map[string]*tenantAcct{}}
}

func (l *Ledgers) tenantLocked(tenant string) *tenantAcct {
	a := l.acct[tenant]
	if a == nil {
		a = &tenantAcct{budgetS: l.defaultBudgetS}
		l.acct[tenant] = a
	}
	return a
}

// Reserve admits a campaign of budgetS against the tenant's ledger, or
// refuses with ErrTenantBudget. force bypasses the check — the registry
// uses it on restart to re-admit campaigns that were admitted before the
// crash (a restart must never orphan admitted work).
func (l *Ledgers) Reserve(tenant string, budgetS float64, force bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.tenantLocked(tenant)
	if !force && a.budgetS > 0 && a.reservedS+a.spentS+budgetS > a.budgetS {
		return fmt.Errorf("%w: tenant %q has %.3gs of %.3gs uncommitted, campaign wants %.3gs",
			ErrTenantBudget, tenant, a.budgetS-a.reservedS-a.spentS, a.budgetS, budgetS)
	}
	a.reservedS += budgetS
	return nil
}

// Settle converts a reservation into actual spend: the reservation is
// released in full and min(spentS, reservedS) is charged. Campaigns that
// end early (cancelled, failed, tiny searches) refund their headroom here.
func (l *Ledgers) Settle(tenant string, reservedS, spentS float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.tenantLocked(tenant)
	a.reservedS -= reservedS
	if a.reservedS < 0 {
		a.reservedS = 0
	}
	if spentS > reservedS {
		spentS = reservedS
	}
	if spentS > 0 {
		a.spentS += spentS
	}
}

// RestoreSpent re-applies settled spend recorded before a restart.
func (l *Ledgers) RestoreSpent(tenant string, spentS float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if spentS > 0 {
		l.tenantLocked(tenant).spentS += spentS
	}
}

// Snapshot returns one tenant's position.
func (l *Ledgers) Snapshot(tenant string) LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.tenantLocked(tenant)
	return LedgerSnapshot{Tenant: tenant, BudgetS: a.budgetS, ReservedS: a.reservedS, SpentS: a.spentS}
}

// Snapshots returns every known tenant's position, sorted by tenant name so
// the listing order never leaks map iteration order.
func (l *Ledgers) Snapshots() []LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.acct))
	for name := range l.acct {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]LedgerSnapshot, 0, len(names))
	for _, name := range names {
		a := l.acct[name]
		out = append(out, LedgerSnapshot{Tenant: name, BudgetS: a.budgetS, ReservedS: a.reservedS, SpentS: a.spentS})
	}
	return out
}
