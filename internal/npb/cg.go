package npb

import (
	"fmt"
	"math"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
)

// CG: a conjugate-gradient solve on a random sparse symmetric positive
// definite matrix, the NPB kernel with the least data locality: the matvec
// gathers p[colidx[k]] at random positions across a vector that spans far
// more 4 KB pages than the DTLB holds ("CG accesses randomly generated
// matrix entries. The stride size might be larger than a 4KB page and might
// benefit from large page support" — paper §4.2).
type CG struct {
	class Class
	n     int
	nzRow int

	a      *core.Array // matrix values, CSR
	colidx *core.Ints  // column indices
	rowstr *core.Ints  // row starts (n+1)
	x      *core.Array // rhs
	z      *core.Array // solution accumulator
	p, q   *core.Array // search direction, A·p
	r      *core.Array // residual

	codeMain *omp.CodeRegion
	codeVec  *omp.CodeRegion

	rho0, rhoFinal float64
	ran            bool
}

// NewCG returns a fresh CG kernel.
func NewCG() *CG { return &CG{} }

// Name implements Kernel.
func (k *CG) Name() string { return "CG" }

// PaperFootprint implements Kernel (Table 2, class B).
func (k *CG) PaperFootprint() (int64, int64) { return mb(1.4), mb(725) }

func (k *CG) geometry(class Class) (n, nzRow int) {
	// The gather vector (n x 8 bytes) must exceed the 4 KB DTLB reach
	// (Opteron: 2.2 MB = 544 pages) for the random gathers to walk, while
	// staying within the 16 MB 2 MB-page reach — the same relationship the
	// class-B vector (600 KB) had to the real TLBs under the full working
	// set pressure of the 725 MB matrix stream.
	switch class {
	case ClassS:
		return 65536, 6 // 512KB vector: mild pressure, fast tests
	case ClassW:
		return 524288, 4 // 4MB vector: ~half the gathers walk
	case ClassA:
		return 1310720, 4 // 10MB vector: most gathers walk
	default:
		return 2048, 5
	}
}

// DefaultIterations implements Kernel.
func (k *CG) DefaultIterations(class Class) int {
	switch class {
	case ClassS:
		return 3
	case ClassW:
		return 4
	case ClassA:
		return 5
	default:
		return 2
	}
}

// Setup implements Kernel: build the random SPD matrix (makea) and the
// vectors, all as transformed globals in the shared region.
func (k *CG) Setup(sys *core.System, class Class) error {
	k.class = class
	k.n, k.nzRow = k.geometry(class)

	// The matrix is a random SYMMETRIC sparsity pattern — each row draws
	// `half` random partners and the entry is mirrored — made SPD by a
	// barely-dominant diagonal, so CG is mathematically valid and converges
	// gradually (NPB CG's matrix is similarly mildly conditioned). Exact
	// nnz = n·(2·half + 1).
	half := (k.nzRow - 1) / 2
	if half < 1 {
		half = 1
	}
	nnz := k.n * (2*half + 1)

	var err error
	if k.a, err = sys.NewArray("cg.a", nnz); err != nil {
		return err
	}
	if k.colidx, err = sys.NewInts("cg.colidx", nnz); err != nil {
		return err
	}
	if k.rowstr, err = sys.NewInts("cg.rowstr", k.n+1); err != nil {
		return err
	}
	for _, v := range []struct {
		name string
		dst  **core.Array
	}{
		{"cg.x", &k.x}, {"cg.z", &k.z}, {"cg.p", &k.p}, {"cg.q", &k.q}, {"cg.r", &k.r},
	} {
		if *v.dst, err = sys.NewArray(v.name, k.n); err != nil {
			return err
		}
	}
	if k.codeMain, err = sys.NewCodeRegion("cg.matvec", 24*1024); err != nil {
		return err
	}
	if k.codeVec, err = sys.NewCodeRegion("cg.vecops", 12*1024); err != nil {
		return err
	}

	if got := k.makea(half); got != nnz {
		return fmt.Errorf("cg: packed %d entries, expected %d", got, nnz)
	}
	for i := 0; i < k.n; i++ {
		k.x.Data[i] = 1.0
	}
	return nil
}

// cgSeed seeds makea's LCG stream.
const cgSeed = 314159

// cgPartner draws row i's next random partner j != i and the entry value v
// from makea's stream.
func cgPartner(rng *lcg, n, i int) (j int, v float64) {
	j = rng.intn(n)
	if j == i {
		j = (j + 1) % n
	}
	return j, rng.float() - 0.5
}

// makea builds the matrix straight into rowstr, colidx and a, with no
// per-row storage, and returns the packed entry count. Each row holds its
// mirrored entries in generation order — row i receives (j, v) before row j
// receives (i, v) — followed by the diagonal Σ|a| + 0.05.
func (k *CG) makea(half int) int {
	n := k.n
	rowstr, colidx, a := k.rowstr.Data, k.colidx.Data, k.a.Data

	// Pass 1: count each row's entries into rowstr[i+1] (its own draws, the
	// mirrors it receives, its diagonal) and prefix-sum them into row starts.
	rng := newLCG(cgSeed)
	for i := 0; i < n; i++ {
		rowstr[i+1] += int64(half) + 1
		for h := 0; h < half; h++ {
			j, _ := cgPartner(rng, n, i)
			rowstr[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		rowstr[i+1] += rowstr[i]
	}

	// Pass 2: replay the stream and scatter each pair, advancing rowstr[i]
	// as row i's fill cursor. Afterwards rowstr[i] points at row i's last
	// slot, the one reserved for the diagonal.
	rng = newLCG(cgSeed)
	for i := 0; i < n; i++ {
		for h := 0; h < half; h++ {
			j, v := cgPartner(rng, n, i)
			p := rowstr[i]
			colidx[p], a[p] = int64(j), v
			rowstr[i]++
			p = rowstr[j]
			colidx[p], a[p] = int64(i), v
			rowstr[j]++
		}
	}

	// Pass 3: write each diagonal and restore the row starts.
	start := int64(0)
	for i := 0; i < n; i++ {
		d := rowstr[i]
		rowSum := 0.0
		for p := start; p < d; p++ {
			rowSum += math.Abs(a[p])
		}
		colidx[d], a[d] = int64(i), rowSum+0.05
		rowstr[i] = start
		start = d + 1
	}
	return int(start)
}

// matvec computes q = A·p through the simulated memory system.
func (k *CG) matvec(rt *omp.RT) {
	rt.ParallelFor(k.codeMain, k.n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			k.rowstr.LoadRange(c, lo, hi+1)
			for i := lo; i < hi; i++ {
				kb := int(k.rowstr.Data[i])
				ke := int(k.rowstr.Data[i+1])
				k.a.LoadRange(c, kb, ke)
				k.colidx.LoadRange(c, kb, ke)
				// The random gather: one bulk indexed access per row.
				// Row granularity preserves the kernel's DTLB pressure —
				// each row's handful of columns still lands on scattered
				// pages — while the fast path amortises translation and
				// cache probes within the row.
				k.p.Gather(c, k.colidx.Data[kb:ke])
				sum := 0.0
				for kk := kb; kk < ke; kk++ {
					sum += k.a.Data[kk] * k.p.Data[int(k.colidx.Data[kk])]
				}
				c.Compute(uint64(2 * (ke - kb)))
				k.q.Data[i] = sum
			}
			k.q.StoreRange(c, lo, hi)
		})
}

// dot computes x·y with a reduction.
func (k *CG) dot(rt *omp.RT, x, y *core.Array) float64 {
	return rt.ParallelForReduce(k.codeVec, k.n, omp.For{Schedule: omp.Static}, 0,
		func(tid int, c *machine.Context, lo, hi int) float64 {
			x.LoadRange(c, lo, hi)
			if y != x {
				y.LoadRange(c, lo, hi)
			}
			s := 0.0
			for i := lo; i < hi; i++ {
				s += x.Data[i] * y.Data[i]
			}
			c.Compute(uint64(2 * (hi - lo)))
			return s
		}, func(a, b float64) float64 { return a + b })
}

// axpy computes dst = dst + alpha·src.
func (k *CG) axpy(rt *omp.RT, dst, src *core.Array, alpha float64) {
	rt.ParallelFor(k.codeVec, k.n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			src.LoadRange(c, lo, hi)
			dst.LoadRange(c, lo, hi)
			for i := lo; i < hi; i++ {
				dst.Data[i] += alpha * src.Data[i]
			}
			dst.StoreRange(c, lo, hi)
			c.Compute(uint64(2 * (hi - lo)))
		})
}

// xpby computes dst = src + beta·dst (the p update).
func (k *CG) xpby(rt *omp.RT, dst, src *core.Array, beta float64) {
	rt.ParallelFor(k.codeVec, k.n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			src.LoadRange(c, lo, hi)
			dst.LoadRange(c, lo, hi)
			for i := lo; i < hi; i++ {
				dst.Data[i] = src.Data[i] + beta*dst.Data[i]
			}
			dst.StoreRange(c, lo, hi)
			c.Compute(uint64(2 * (hi - lo)))
		})
}

// Run implements Kernel: `iterations` CG steps on A·z = x starting from
// z = 0, r = p = x.
func (k *CG) Run(rt *omp.RT, iterations int) error {
	// z = 0; r = x; p = r.
	rt.ParallelFor(k.codeVec, k.n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			k.x.LoadRange(c, lo, hi)
			for i := lo; i < hi; i++ {
				k.z.Data[i] = 0
				k.r.Data[i] = k.x.Data[i]
				k.p.Data[i] = k.x.Data[i]
			}
			k.z.StoreRange(c, lo, hi)
			k.r.StoreRange(c, lo, hi)
			k.p.StoreRange(c, lo, hi)
		})

	rho := k.dot(rt, k.r, k.r)
	k.rho0 = rho
	for it := 0; it < iterations; it++ {
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		if rho <= k.rho0*1e-28 {
			break // converged to rounding noise; further steps break down
		}
		k.matvec(rt)
		pq := k.dot(rt, k.p, k.q)
		// An aborted dot skips chunks and yields a partial sum; check the
		// abort before interpreting pq, or a cancellation would masquerade
		// as numerical breakdown.
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		if pq <= 0 {
			return fmt.Errorf("cg: breakdown at iteration %d (pq=%g)", it, pq)
		}
		alpha := rho / pq
		k.axpy(rt, k.z, k.p, alpha)
		k.axpy(rt, k.r, k.q, -alpha)
		rhoNew := k.dot(rt, k.r, k.r)
		beta := rhoNew / rho
		rho = rhoNew
		k.xpby(rt, k.p, k.r, beta)
	}
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	k.rhoFinal = rho
	k.ran = true
	return nil
}

// Verify implements Kernel: CG on an SPD system must shrink the residual
// monotonically in exact arithmetic; we require a substantial reduction.
func (k *CG) Verify() error {
	if !k.ran {
		return fmt.Errorf("cg: not run")
	}
	if !(k.rhoFinal < k.rho0*0.5) {
		return fmt.Errorf("cg: residual did not converge: %g -> %g", k.rho0, k.rhoFinal)
	}
	if math.IsNaN(k.rhoFinal) || math.IsInf(k.rhoFinal, 0) {
		return fmt.Errorf("cg: residual is not finite")
	}
	return nil
}

func mb(f float64) int64 { return int64(f * 1024 * 1024) }
