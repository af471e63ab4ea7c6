package platform

import "testing"

// TestLedgerSegments prices each segment by hand and checks the clock
// rules: an idle gap of at most 1e-12 s moves the clock uncharged, an
// idle target in the past is a no-op, and out-of-range levels price at
// the top level.
func TestLedgerSegments(t *testing.T) {
	p := ODROIDXU3A7()
	l2, l4, top := p.Levels[2], p.Levels[4], p.MaxLevel()
	led := NewLedger(NewPowerTable(p))

	if j := led.IdleUntil(1.0, 2); j != p.IdlePower(l2)*1.0 {
		t.Fatalf("idle charged %g J, want %g", j, p.IdlePower(l2))
	}
	want := p.ActivePower(l2)*0.001 + p.SwitchPower(l2, l4)*0.002 + p.ActivePower(l4)*0.05
	if j := led.Run(2, 4, 0.001, 0.002, 0.05); j != want {
		t.Fatalf("run charged %.17g J, want %.17g", j, want)
	}
	end := 1.0 + 0.001 + 0.002 + 0.05
	if led.Now() != end {
		t.Fatalf("clock %.17g, want %.17g", led.Now(), end)
	}
	if j := led.IdleUntil(end-0.5, 4); j != 0 || led.Now() != end {
		t.Fatalf("idle into the past charged %g J, clock %g", j, led.Now())
	}
	if j := led.IdleUntil(end+1e-13, 4); j != 0 || led.Now() != end+1e-13 {
		t.Fatalf("sub-epsilon gap charged %g J, clock %.17g", j, led.Now())
	}
	if j := led.Run(99, -3, 0, 0, 1); j != p.ActivePower(top) {
		t.Fatalf("out-of-range level charged %g J, want %g", j, p.ActivePower(top))
	}
	b := led.Breakdown()
	if b.IdleJ != p.IdlePower(l2) || b.SwitchJ != p.SwitchPower(l2, l4)*0.002 ||
		b.Total() != b.ExecJ+b.PredictorJ+b.SwitchJ+b.IdleJ {
		t.Fatalf("breakdown %+v", b)
	}
}

// TestLedgerZeroAlloc gates the metering hot path: charging a job must
// not allocate. Run by `make alloc-gate`.
func TestLedgerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	led := NewLedger(NewPowerTable(ODROIDXU3A7()))
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		now += 0.02
		led.IdleUntil(now, 2)
		led.Run(2, 4, 0.0001, 0.001, 0.01)
	})
	if allocs != 0 {
		t.Fatalf("Ledger allocated %.1f/op, want 0", allocs)
	}
}

// TestPowerTableByName: a ByName name resolves to one shared table that
// prices like a fresh one; any other name, including a board's model
// name, resolves to nil and is not remembered.
func TestPowerTableByName(t *testing.T) {
	a, b := PowerTableByName("x86"), PowerTableByName("x86")
	if a == nil || a != b {
		t.Fatalf("x86 tables %p and %p, want one shared non-nil table", a, b)
	}
	fresh := NewPowerTable(IntelI7())
	for i := range fresh.active {
		if a.active[i] != fresh.active[i] || a.idle[i] != fresh.idle[i] {
			t.Fatalf("level %d: shared table differs from a fresh one", i)
		}
	}
	for _, name := range []string{"", "odroid-xu3-a7", "nope"} {
		if PowerTableByName(name) != nil {
			t.Errorf("PowerTableByName(%q) resolved, want nil", name)
		}
		if _, ok := powerTables.Load(name); ok {
			t.Errorf("unresolved name %q was memoized", name)
		}
	}
}
