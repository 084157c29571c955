package machine

import (
	"fmt"
	"sync"

	"hugeomp/internal/cache"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/tlb"
	"hugeomp/internal/units"
)

// Machine is an instantiated platform running one simulated process.
type Machine struct {
	Model   Model
	Sharing SharingMode

	pt  *pagetable.Table
	bus *cache.Bus

	contexts []*Context
}

// New instantiates model with the default partitioned sharing mode.
func New(model Model) *Machine {
	return &Machine{Model: model, Sharing: SharePartition}
}

// AttachProcess connects the process page table that every context
// translates through.
func (m *Machine) AttachProcess(pt *pagetable.Table) { m.pt = pt }

// PageTable returns the attached process page table.
func (m *Machine) PageTable() *pagetable.Table { return m.pt }

// Bus returns the snoop bus, if the machine was configured coherent.
func (m *Machine) Bus() *cache.Bus { return m.bus }

// Contexts returns the contexts built by the last Configure call.
func (m *Machine) Contexts() []*Context { return m.contexts }

// slot identifies one hardware thread.
type slot struct {
	chip, core, thread int
}

// placement enumerates hardware threads in the paper's scheduling order:
// "Single thread per core is used up to 4 threads. Two threads per core are
// used at eight threads" — i.e. fill one thread on every core (spreading
// across chips first) before using SMT siblings.
func (m Model) placement(n int) ([]slot, error) {
	max := m.MaxThreads()
	if n < 1 || n > max {
		return nil, fmt.Errorf("machine: %d threads out of range 1..%d on %s", n, max, m.Name)
	}
	var slots []slot
	for t := 0; t < m.ThreadsPerCore; t++ {
		for c := 0; c < m.CoresPerChip; c++ {
			for ch := 0; ch < m.Chips; ch++ {
				slots = append(slots, slot{chip: ch, core: c, thread: t})
			}
		}
	}
	return slots[:n], nil
}

// ctxLayout is one context's place and the geometry of the structures it
// sees: under SharePartition its share of each co-scheduled structure,
// under ShareTrue the model's full structures.
type ctxLayout struct {
	slot
	coreKey, l2Key     int // physical core and L2 domain
	coreShare, l2Share int // active contexts on them
	itlb, dtlb         tlb.Spec
	l1, l2             cache.Config
}

// layout places an n-thread run and sizes every context's structures,
// refusing a placement whose structures have no valid geometry (say a
// 2 MB L2 split three ways), so no config reaches construction that
// cache.New or tlb.New would panic on.
func (m Model) layout(n int, sharing SharingMode) ([]ctxLayout, error) {
	slots, err := m.placement(n)
	if err != nil {
		return nil, err
	}
	coreKey := func(s slot) int { return s.chip*m.CoresPerChip + s.core }
	l2Key := func(s slot) int {
		if m.L2PerChip {
			return s.chip
		}
		return coreKey(s)
	}
	perCore := map[int]int{}
	perL2 := map[int]int{}
	for _, s := range slots {
		perCore[coreKey(s)]++
		perL2[l2Key(s)]++
	}
	out := make([]ctxLayout, len(slots))
	for i, s := range slots {
		l := ctxLayout{
			slot: s, coreKey: coreKey(s), l2Key: l2Key(s),
			itlb: m.ITLB, dtlb: m.DTLB, l1: m.L1D, l2: m.L2,
		}
		l.coreShare, l.l2Share = perCore[l.coreKey], perL2[l.l2Key]
		if sharing == SharePartition {
			if l.coreShare > 1 {
				l.itlb = l.itlb.Halve()
				l.dtlb = l.dtlb.Halve()
				l.l1.SizeBytes /= int64(l.coreShare)
			}
			if l.l2Share > 1 {
				l.l2.SizeBytes /= int64(l.l2Share)
			}
		}
		for _, err := range [...]error{l.itlb.Validate(), l.dtlb.Validate(), l.l1.Validate(), l.l2.Validate()} {
			if err != nil {
				return nil, fmt.Errorf("machine: %d %s threads on %s leave context %d with no valid geometry: %w",
					n, sharing, m.Name, i, err)
			}
		}
		out[i] = l
	}
	return out, nil
}

// CheckConfig reports whether an n-thread run under sharing can be
// configured on m — the same check Configure makes before it builds
// anything, for callers that must refuse a request up front.
func (m Model) CheckConfig(n int, sharing SharingMode) error {
	_, err := m.layout(n, sharing)
	return err
}

// Configure builds the hardware contexts for an n-thread run. Context
// resources (TLBs, caches) are sized according to how many co-scheduled
// contexts share them under the machine's SharingMode; a run whose shares
// have no valid geometry is an error, reported before anything is built.
// Configure must be called after AttachProcess.
func (m *Machine) Configure(n int) ([]*Context, error) {
	if m.pt == nil {
		return nil, fmt.Errorf("machine: Configure before AttachProcess")
	}
	layouts, err := m.Model.layout(n, m.Sharing)
	if err != nil {
		return nil, err
	}

	m.bus = nil
	if m.Model.Coherent {
		m.bus = cache.NewBus()
	}

	m.contexts = make([]*Context, 0, n)
	switch m.Sharing {
	case SharePartition:
		for id, l := range layouts {
			ctx := m.newContext(id, l.slot, l.itlb, l.dtlb, l.l1, l.l2, l.coreShare > 1)
			m.contexts = append(m.contexts, ctx)
		}
	case ShareTrue:
		// Co-located contexts share the same structures behind locks.
		type coreRes struct {
			itlb, dtlb *tlb.Hierarchy
			l1         *cache.Cache
			mu         *sync.Mutex
		}
		type l2Res struct {
			l2 *cache.Cache
			mu *sync.Mutex
		}
		cores := map[int]*coreRes{}
		l2s := map[int]*l2Res{}
		for id, l := range layouts {
			cr := cores[l.coreKey]
			if cr == nil {
				cr = &coreRes{
					itlb: tlb.NewHierarchy(l.itlb),
					dtlb: tlb.NewHierarchy(l.dtlb),
					l1:   cache.New(l.l1),
					mu:   &sync.Mutex{},
				}
				cores[l.coreKey] = cr
			}
			lr := l2s[l.l2Key]
			if lr == nil {
				lr = &l2Res{l2: cache.New(l.l2), mu: &sync.Mutex{}}
				if m.bus != nil {
					m.bus.Attach(lr.l2)
				}
				l2s[l.l2Key] = lr
			}
			ctx := &Context{
				ID: id, Chip: l.chip, Core: l.core, Thread: l.thread,
				machine: m, pt: m.pt,
				itlb: cr.itlb, dtlb: cr.dtlb, l1: cr.l1, l2: lr.l2,
				costs:      &m.Model.Costs,
				hasSibling: l.coreShare > 1,
				xlat:       make([]xlatSlot, xlatSlots),
			}
			if l.coreShare > 1 {
				ctx.coreMu = cr.mu
			}
			if l.l2Share > 1 {
				ctx.l2Mu = lr.mu
			}
			ctx.smtFlush = m.Model.SMT == SMTFlushOnSwitch && ctx.hasSibling
			ctx.resetPageCache()
			m.contexts = append(m.contexts, ctx)
		}
	}
	return m.contexts, nil
}

func (m *Machine) newContext(id int, s slot, itlbSpec, dtlbSpec tlb.Spec,
	l1cfg, l2cfg cache.Config, hasSibling bool) *Context {
	l2 := cache.New(l2cfg)
	if m.bus != nil {
		m.bus.Attach(l2)
	}
	ctx := &Context{
		ID: id, Chip: s.chip, Core: s.core, Thread: s.thread,
		machine: m, pt: m.pt,
		itlb:       tlb.NewHierarchy(itlbSpec),
		dtlb:       tlb.NewHierarchy(dtlbSpec),
		l1:         cache.New(l1cfg),
		l2:         l2,
		costs:      &m.Model.Costs,
		hasSibling: hasSibling,
		xlat:       make([]xlatSlot, xlatSlots),
	}
	ctx.smtFlush = m.Model.SMT == SMTFlushOnSwitch && hasSibling
	ctx.resetPageCache()
	return ctx
}

// CoreOf returns a stable key for the physical core of ctx, used by the
// runtime to aggregate per-core busy time (SMT siblings serialise).
func (m *Machine) CoreOf(c *Context) int { return c.Chip*m.Model.CoresPerChip + c.Core }

// Seconds converts cycles to simulated seconds at the model's clock.
func (m *Machine) Seconds(cyc uint64) float64 {
	return float64(cyc) / (m.Model.Costs.ClockGHz * 1e9)
}

// TLBReach reports the data-TLB coverage of the model for the given page
// size in bytes (paper Table 1's coverage rows).
func (m *Machine) TLBReach(size units.PageSize) int64 {
	return m.Model.DTLB.Coverage(size)
}
