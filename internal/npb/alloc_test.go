package npb

import (
	"testing"

	"hugeomp/internal/core"
)

// setupAllocs counts the heap allocations of one CG.Setup at class c. Each
// run gets a fresh system built outside the measured function, so only
// Setup itself is counted.
func setupAllocs(t *testing.T, c Class) float64 {
	const runs = 3
	var systems []*core.System
	for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
		systems = append(systems, newSetupSystem(t, c))
	}
	return testing.AllocsPerRun(runs, func() {
		sys := systems[0]
		systems = systems[1:]
		if err := NewCG().Setup(sys, c); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCGSetupAllocsConstant: makea builds the matrix in place, so CG.Setup
// allocates the same handful of objects (the arrays and their symbols) at
// class S (65536 rows) as at class T (2048 rows), never one per row.
func TestCGSetupAllocsConstant(t *testing.T) {
	small, large := setupAllocs(t, ClassT), setupAllocs(t, ClassS)
	t.Logf("CG.Setup allocations: class T %.0f, class S %.0f", small, large)
	if large != small {
		t.Errorf("CG.Setup allocations scale with n: class T %.0f, class S %.0f", small, large)
	}
	if large > 100 {
		t.Errorf("CG.Setup makes %.0f allocations at class S, want a small constant", large)
	}
}

// TestSolveLineAllocsPerTeam: SP's and BT's line solves share one scratch
// slice per chunk, so a timestep allocates in proportion to the team (a
// constant per region plus one scratch per chunk), not to the lines it
// solves — 1280 for SP and 432 for BT at class T, either of which alone
// exceeds the bound at every team size here.
func TestSolveLineAllocsPerTeam(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		for _, k := range []Kernel{NewSP(), NewBT()} {
			sys := newSetupSystem(t, ClassT)
			if err := k.Setup(sys, ClassT); err != nil {
				t.Fatal(err)
			}
			sys.Seal()
			rt, err := sys.NewRT(threads)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := k.Run(rt, 1); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(64 * threads); allocs > limit {
				t.Errorf("%s with %d threads: %.0f allocations per timestep, want <= %.0f",
					k.Name(), threads, allocs, limit)
			}
		}
	}
}

// BenchmarkCGSetup is the npb.setup_ms layer's Go benchmark: one class-W
// CG.Setup (524288 rows), excluding the system it is built on.
func BenchmarkCGSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := newSetupSystem(b, ClassW)
		b.StartTimer()
		if err := NewCG().Setup(sys, ClassW); err != nil {
			b.Fatal(err)
		}
	}
}
