package npb

import (
	"fmt"
	"math"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/omp"
)

// SP: a scalar-pentadiagonal-style ADI solver reduced to its memory-system
// essence — alternating-direction implicit line solves (Thomas algorithm)
// through a 3D grid in x, y and z. The z solve walks lines whose element
// stride is one full plane: every access touches a different 4 KB page and
// the number of pages per line exceeds the 4 KB DTLB, so with small pages
// nearly every z-solve access takes a page walk — while the whole grid fits
// comfortably in the 2 MB-page TLB reach. This is the access pattern that
// gives SP its ~20% large-page gain in the paper.
//
// Geometry note: the paper runs class B (102^3); at our scaled sizes the
// decisive ratio is (pages per z line) vs (DTLB capacity), so the grid is
// deliberately elongated in z: plane > 4KB and nz > the 544-entry Opteron
// 4 KB DTLB stack, preserving the class-B behaviour at class-A cost.
type SP struct {
	class      Class
	nx, ny, nz int

	u   *core.Array // solution
	rhs *core.Array // right-hand side / workspace
	rho *core.Array // an auxiliary field streamed in rhs computation

	codeRHS   *omp.CodeRegion
	codeSolve *omp.CodeRegion

	checksum float64
	initial  float64
	ran      bool
}

// NewSP returns a fresh SP kernel.
func NewSP() *SP { return &SP{} }

// Name implements Kernel.
func (k *SP) Name() string { return "SP" }

// PaperFootprint implements Kernel (Table 2, class B).
func (k *SP) PaperFootprint() (int64, int64) { return mb(1.6), mb(387) }

func (k *SP) geometry(class Class) (nx, ny, nz int) {
	// Plane = nx*ny*8 bytes (>4KB from class S up); nz chosen so a z line
	// cycles more 4 KB pages than the DTLB holds at class W/A.
	// The plane (nx·ny·8 bytes) is deliberately NOT a power-of-two multiple
	// of 4 KB: a 12 KB plane advances the z-line's virtual page number by 3
	// per step, touching every set of the 4-way L2 DTLB (a 8 KB plane would
	// use only the even sets and halve the effective capacity).
	switch class {
	case ClassS:
		return 48, 32, 96
	case ClassW:
		return 48, 32, 280
	case ClassA:
		return 48, 32, 288
	default:
		return 16, 16, 32
	}
}

// DefaultIterations implements Kernel.
func (k *SP) DefaultIterations(class Class) int {
	switch class {
	case ClassS:
		return 3
	case ClassW:
		return 3
	case ClassA:
		return 4
	default:
		return 2
	}
}

func (k *SP) n() int { return k.nx * k.ny * k.nz }

// idx flattens (i,j,kk) with i fastest.
func (k *SP) idx(i, j, kk int) int { return i + k.nx*(j+k.ny*kk) }

// Setup implements Kernel.
func (k *SP) Setup(sys *core.System, class Class) error {
	k.class = class
	k.nx, k.ny, k.nz = k.geometry(class)
	n := k.n()
	var err error
	if k.u, err = sys.NewArray("sp.u", n); err != nil {
		return err
	}
	if k.rhs, err = sys.NewArray("sp.rhs", n); err != nil {
		return err
	}
	if k.rho, err = sys.NewArray("sp.rho", n); err != nil {
		return err
	}
	if k.codeRHS, err = sys.NewCodeRegion("sp.rhs", 20*1024); err != nil {
		return err
	}
	if k.codeSolve, err = sys.NewCodeRegion("sp.solve", 28*1024); err != nil {
		return err
	}

	rng := newLCG(271828)
	var sum float64
	for i := range k.u.Data {
		k.u.Data[i] = rng.float()
		k.rho.Data[i] = 0.1 + 0.8*rng.float()
		sum += k.u.Data[i]
	}
	k.initial = sum
	return nil
}

// computeRHS streams the grid once, unit stride (compact stencil in i).
func (k *SP) computeRHS(rt *omp.RT) {
	n := k.n()
	rt.ParallelFor(k.codeRHS, n, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			k.u.LoadRange(c, lo, hi)
			k.rho.LoadRange(c, lo, hi)
			for i := lo; i < hi; i++ {
				left, right := i, i
				if i > 0 {
					left = i - 1
				}
				if i < n-1 {
					right = i + 1
				}
				k.rhs.Data[i] = k.rho.Data[i] * (k.u.Data[left] + k.u.Data[right] - 2*k.u.Data[i] + k.u.Data[i])
			}
			k.rhs.StoreRange(c, lo, hi)
			// Flux and dissipation terms in three directions: ~30 flops
			// per point.
			c.Compute(uint64(30 * (hi - lo)))
		})
}

// solveLine runs the Thomas algorithm over one line of `count` points
// starting at element `start` with element stride `stride`: an implicit
// (1 + 2λ, -λ) tridiagonal system, updating u in place from rhs.
func (k *SP) solveLine(c *machine.Context, cp []float64, start, count, stride int, lam float64) {
	// Forward sweep reads rhs and u along the line; backward sweep writes u.
	k.rhs.LoadStride(c, start, count, stride)
	k.u.LoadStride(c, start, count, stride)

	b := 1 + 2*lam
	// Forward elimination. The c' coefficients live in cp, the caller's
	// thread-private scratch of at least count elements (the real SP keeps
	// them in registers/private arrays), so they are not driven through the
	// simulated memory system.
	cp[0] = -lam / b
	k.u.Data[start] = (k.u.Data[start] + lam*k.rhs.Data[start]) / b
	for m := 1; m < count; m++ {
		i := start + m*stride
		ip := i - stride
		den := b + lam*cp[m-1]
		cp[m] = -lam / den
		k.u.Data[i] = (k.u.Data[i] + lam*k.rhs.Data[i] + lam*k.u.Data[ip]) / den
	}
	// Back substitution.
	for m := count - 2; m >= 0; m-- {
		i := start + m*stride
		k.u.Data[i] -= cp[m] * k.u.Data[i+stride]
	}
	k.u.StoreStride(c, start, count, stride)
	// The real SP solves scalar pentadiagonal systems for five variables
	// with flux-limited coefficients: ~40 flops per point per direction.
	c.Compute(uint64(40 * count))
}

// xSolve: unit-stride lines (i direction).
func (k *SP) xSolve(rt *omp.RT, lam float64) {
	lines := k.ny * k.nz
	rt.ParallelFor(k.codeSolve, lines, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			cp := make([]float64, k.nx)
			for l := lo; l < hi; l++ {
				j, kk := l%k.ny, l/k.ny
				k.solveLine(c, cp, k.idx(0, j, kk), k.nx, 1, lam)
			}
		})
}

// ySolve: stride-nx lines (j direction).
func (k *SP) ySolve(rt *omp.RT, lam float64) {
	lines := k.nx * k.nz
	rt.ParallelFor(k.codeSolve, lines, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			cp := make([]float64, k.ny)
			for l := lo; l < hi; l++ {
				i, kk := l%k.nx, l/k.nx
				k.solveLine(c, cp, k.idx(i, 0, kk), k.ny, k.nx, lam)
			}
		})
}

// zSolve: stride-(nx·ny) lines (k direction) — one page per access.
func (k *SP) zSolve(rt *omp.RT, lam float64) {
	lines := k.nx * k.ny
	rt.ParallelFor(k.codeSolve, lines, omp.For{Schedule: omp.Static},
		func(tid int, c *machine.Context, lo, hi int) {
			cp := make([]float64, k.nz)
			for l := lo; l < hi; l++ {
				i, j := l%k.nx, l/k.nx
				k.solveLine(c, cp, k.idx(i, j, 0), k.nz, k.nx*k.ny, lam)
			}
		})
}

// Run implements Kernel: ADI timesteps (rhs, x, y, z).
func (k *SP) Run(rt *omp.RT, iterations int) error {
	const lam = 0.45
	for it := 0; it < iterations; it++ {
		if err := rt.Checkpoint(); err != nil {
			return err
		}
		k.computeRHS(rt)
		k.xSolve(rt, lam)
		k.ySolve(rt, lam)
		k.zSolve(rt, lam)
	}
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	// Checksum reduction.
	k.checksum = rt.ParallelForReduce(k.codeRHS, k.n(), omp.For{Schedule: omp.Static}, 0,
		func(tid int, c *machine.Context, lo, hi int) float64 {
			k.u.LoadRange(c, lo, hi)
			s := 0.0
			for i := lo; i < hi; i++ {
				s += k.u.Data[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	if err := rt.Checkpoint(); err != nil {
		return err
	}
	k.ran = true
	return nil
}

// Verify implements Kernel: the implicit diffusion steps are conservative-
// ish and must keep the field finite and bounded; the checksum must stay
// within a factor of the initial mass.
func (k *SP) Verify() error {
	if !k.ran {
		return fmt.Errorf("sp: not run")
	}
	if math.IsNaN(k.checksum) || math.IsInf(k.checksum, 0) {
		return fmt.Errorf("sp: checksum not finite")
	}
	for i, v := range k.u.Data {
		if math.IsNaN(v) || math.Abs(v) > 1e6 {
			return fmt.Errorf("sp: solution diverged at %d: %g", i, v)
		}
	}
	if k.initial != 0 && math.Abs(k.checksum) > 10*math.Abs(k.initial) {
		return fmt.Errorf("sp: checksum %g far from initial %g", k.checksum, k.initial)
	}
	return nil
}
