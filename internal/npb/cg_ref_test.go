package npb

import (
	"math"
	"testing"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
)

// refMakea is the test oracle for CG's matrix: the straightforward builder
// that appends each mirrored entry to a per-row slice in generation order and
// then packs the rows into CSR with the dominant diagonal last. CG.Setup
// must reproduce its rowstr, colidx and a bit for bit.
func refMakea(n, nzRow int) (rowstr, colidx []int64, a []float64) {
	rng := newLCG(cgSeed)
	type ent struct {
		col int
		v   float64
	}
	half := (nzRow - 1) / 2
	if half < 1 {
		half = 1
	}
	rows := make([][]ent, n)
	for i := 0; i < n; i++ {
		for h := 0; h < half; h++ {
			j := rng.intn(n)
			if j == i {
				j = (j + 1) % n
			}
			v := rng.float() - 0.5
			rows[i] = append(rows[i], ent{j, v})
			rows[j] = append(rows[j], ent{i, v})
		}
	}
	nnz := n * (2*half + 1)
	rowstr = make([]int64, n+1)
	colidx = make([]int64, nnz)
	a = make([]float64, nnz)
	pos := 0
	for i := 0; i < n; i++ {
		rowstr[i] = int64(pos)
		rowSum := 0.0
		for _, e := range rows[i] {
			colidx[pos] = int64(e.col)
			a[pos] = e.v
			rowSum += math.Abs(e.v)
			pos++
		}
		colidx[pos] = int64(i)
		a[pos] = rowSum + 0.05
		pos++
		rows[i] = nil
	}
	rowstr[n] = int64(pos)
	return rowstr, colidx, a
}

// newSetupSystem returns an unsealed system sized like RunOn's for class c.
func newSetupSystem(tb testing.TB, c Class) *core.System {
	tb.Helper()
	shared := sharedBytesFor(c)
	sys, err := core.NewSystem(core.Config{
		Model:       machine.Opteron270(),
		Policy:      core.Policy4K,
		SharedBytes: shared,
		PhysBytes:   4 * shared,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestCGMakeaMatchesOracle pins CG.Setup's in-place CSR build to the oracle
// at every class, covering both partner counts: half = 1 at W and A
// (nzRow 4), half = 2 at T and S (nzRow 5 and 6).
func TestCGMakeaMatchesOracle(t *testing.T) {
	for _, class := range []Class{ClassT, ClassS, ClassW, ClassA} {
		t.Run(class.String(), func(t *testing.T) {
			k := NewCG()
			if err := k.Setup(newSetupSystem(t, class), class); err != nil {
				t.Fatal(err)
			}
			rowstr, colidx, a := refMakea(k.geometry(class))
			if len(k.rowstr.Data) != len(rowstr) || len(k.colidx.Data) != len(colidx) || len(k.a.Data) != len(a) {
				t.Fatalf("shape: rowstr %d/%d colidx %d/%d a %d/%d", len(k.rowstr.Data), len(rowstr),
					len(k.colidx.Data), len(colidx), len(k.a.Data), len(a))
			}
			for i, want := range rowstr {
				if got := k.rowstr.Data[i]; got != want {
					t.Fatalf("rowstr[%d] = %d, oracle %d", i, got, want)
				}
			}
			for p, want := range colidx {
				if got := k.colidx.Data[p]; got != want {
					t.Fatalf("colidx[%d] = %d, oracle %d", p, got, want)
				}
			}
			for p, want := range a {
				if got := k.a.Data[p]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("a[%d] = %v, oracle %v", p, got, want)
				}
			}
		})
	}
}
