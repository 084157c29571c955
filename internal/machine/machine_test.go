package machine

import (
	"testing"

	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

// mapRange maps [base, base+size) with pages of the given class.
func mapRange(t testing.TB, pt *pagetable.Table, base units.Addr, size int64, ps units.PageSize) {
	t.Helper()
	pfn := uint64(0)
	step := ps.Bytes()
	if ps == units.Size2M {
		pfn = 1 << 20 // keep large frames away from small ones
	}
	for off := int64(0); off < size; off += step {
		p := pfn + uint64(off/units.PageSize4K)
		if ps == units.Size2M {
			p = pfn + uint64(off/units.PageSize4K)
		}
		if err := pt.Map(base+units.Addr(off), ps, p, pagetable.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
}

func newCtx(t *testing.T, model Model, threads int, ps units.PageSize, dataBytes int64) []*Context {
	t.Helper()
	pt := pagetable.New()
	base := units.Addr(0)
	mapRange(t, pt, base, units.AlignUp(dataBytes, ps.Bytes()), ps)
	m := New(model)
	m.AttachProcess(pt)
	ctxs, err := m.Configure(threads)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctxs {
		c.SetPageHint(ps)
	}
	return ctxs
}

func TestPlacementSpreadsCoresFirst(t *testing.T) {
	m := New(XeonHT())
	m.AttachProcess(pagetable.New())
	ctxs, err := m.Configure(4)
	if err != nil {
		t.Fatal(err)
	}
	cores := map[int]int{}
	for _, c := range ctxs {
		cores[m.CoreOf(c)]++
		if c.HasSibling() {
			t.Error("4 threads on 4 cores should have no SMT siblings")
		}
	}
	if len(cores) != 4 {
		t.Errorf("4 threads placed on %d cores, want 4", len(cores))
	}
	ctxs, err = m.Configure(8)
	if err != nil {
		t.Fatal(err)
	}
	cores = map[int]int{}
	for _, c := range ctxs {
		cores[m.CoreOf(c)]++
		if !c.HasSibling() {
			t.Error("8 threads on 4 cores: every context has a sibling")
		}
	}
	for core, n := range cores {
		if n != 2 {
			t.Errorf("core %d has %d contexts, want 2", core, n)
		}
	}
}

func TestPlacementRejectsOversubscription(t *testing.T) {
	m := New(Opteron270())
	m.AttachProcess(pagetable.New())
	if _, err := m.Configure(5); err == nil {
		t.Error("Opteron accepts 5 threads but has only 4 contexts")
	}
	if _, err := m.Configure(0); err == nil {
		t.Error("zero threads accepted")
	}
}

// TestConfigureGeometryNeverPanics: every built-in model at every thread
// count under both sharing modes either configures or returns an error —
// a partitioned share with no valid cache or TLB geometry must never reach
// construction — and CheckConfig gives the same verdict without building.
func TestConfigureGeometryNeverPanics(t *testing.T) {
	for _, model := range AllModels() {
		for _, sharing := range []SharingMode{SharePartition, ShareTrue} {
			for n := 1; n <= model.MaxThreads(); n++ {
				m := New(model)
				m.Sharing = sharing
				m.AttachProcess(pagetable.New())
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s/%s/%d threads: Configure panicked: %v", model.Name, sharing, n, r)
						}
					}()
					_, err = m.Configure(n)
				}()
				if check := model.CheckConfig(n, sharing); (check == nil) != (err == nil) {
					t.Errorf("%s/%s/%d threads: CheckConfig = %v, Configure = %v", model.Name, sharing, n, check, err)
				}
			}
		}
	}
	// The XeonHT case that used to panic: five to seven threads split a
	// chip's 2 MB L2 three ways.
	for n := 5; n <= 7; n++ {
		if err := XeonHT().CheckConfig(n, SharePartition); err == nil {
			t.Errorf("XeonHT %d partitioned threads accepted with a three-way L2 split", n)
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		if err := XeonHT().CheckConfig(n, SharePartition); err != nil {
			t.Errorf("XeonHT %d threads rejected: %v", n, err)
		}
	}
}

func TestSMTPartitionHalvesTLB(t *testing.T) {
	m := New(XeonHT())
	m.AttachProcess(pagetable.New())
	ctxs, _ := m.Configure(8)
	full := XeonHT().DTLB.L1.E4K.Entries
	if got := ctxs[0].DTLB().Spec().L1.E4K.Entries; got != full/2 {
		t.Errorf("SMT-shared DTLB entries = %d, want %d", got, full/2)
	}
	ctxs, _ = m.Configure(4)
	if got := ctxs[0].DTLB().Spec().L1.E4K.Entries; got != full {
		t.Errorf("sole-owner DTLB entries = %d, want %d", got, full)
	}
}

func TestSequentialAccessCountsOnePageWalkPerPage(t *testing.T) {
	ctxs := newCtx(t, Opteron270(), 1, units.Size4K, 64*units.KB)
	c := ctxs[0]
	// Touch every 8 bytes of 16 pages.
	c.AccessRange(0, 16*512, 8, false)
	if got := c.Ctr.DTLBWalks4K; got != 16 {
		t.Errorf("walks = %d, want 16 (one per page, all cold)", got)
	}
	if got := c.Ctr.Loads; got != 16*512 {
		t.Errorf("loads = %d", got)
	}
	// Second pass: the 16 pages fit the 32-entry L1 DTLB, no more walks.
	walks := c.Ctr.DTLBWalks4K
	c.AccessRange(0, 16*512, 8, false)
	if c.Ctr.DTLBWalks4K != walks {
		t.Errorf("warm pass added %d walks", c.Ctr.DTLBWalks4K-walks)
	}
}

func TestLargePagesReduceWalksForStrides(t *testing.T) {
	const span = 8 * units.MB
	// Stride of one 4 KB page over 8 MB: 2048 pages with 4 KB pages but
	// only 4 large pages.
	ctx4 := newCtx(t, Opteron270(), 1, units.Size4K, span)[0]
	ctx2 := newCtx(t, Opteron270(), 1, units.Size2M, span)[0]
	n := int(span / units.PageSize4K)
	for pass := 0; pass < 3; pass++ {
		ctx4.AccessRange(0, n, units.PageSize4K, false)
		ctx2.AccessRange(0, n, units.PageSize4K, false)
	}
	if ctx2.Ctr.DTLBWalks() >= ctx4.Ctr.DTLBWalks()/100 {
		t.Errorf("2MB walks = %d vs 4KB walks = %d; expected >100x reduction",
			ctx2.Ctr.DTLBWalks(), ctx4.Ctr.DTLBWalks())
	}
	if ctx2.Ctr.Busy >= ctx4.Ctr.Busy {
		t.Errorf("2MB busy = %d >= 4KB busy = %d", ctx2.Ctr.Busy, ctx4.Ctr.Busy)
	}
}

func TestScalarAndRangeEquivalence(t *testing.T) {
	// AccessRange must produce the same counters as elementwise Load.
	mk := func() *Context { return newCtx(t, Opteron270(), 1, units.Size4K, units.MB)[0] }
	a, b := mk(), mk()
	const n = 4096
	const stride = 24
	a.AccessRange(0, n, stride, false)
	for i := 0; i < n; i++ {
		b.Load(units.Addr(int64(i) * stride))
	}
	if a.Ctr != b.Ctr {
		t.Errorf("counter mismatch:\nrange:  %+v\nscalar: %+v", a.Ctr, b.Ctr)
	}
}

func TestWalkCyclesShorterFor2M(t *testing.T) {
	c4 := newCtx(t, Opteron270(), 1, units.Size4K, units.PageSize2M)[0]
	c2 := newCtx(t, Opteron270(), 1, units.Size2M, units.PageSize2M)[0]
	c4.Load(0)
	c2.Load(0)
	if c4.Ctr.WalkCyc != 2*DefaultCosts().WalkRefCyc {
		t.Errorf("4K walk cycles = %d", c4.Ctr.WalkCyc)
	}
	if c2.Ctr.WalkCyc != DefaultCosts().WalkRefCyc {
		t.Errorf("2M walk cycles = %d (one fewer level)", c2.Ctr.WalkCyc)
	}
}

func TestSMTFlushPenaltyOnXeonSiblings(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, 64*units.MB, units.Size4K)
	m := New(XeonHT())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(8)
	c := ctxs[0]
	if !c.smtFlush {
		t.Fatal("sibling context should have flush-on-switch enabled")
	}
	// Strided misses: every access a cache miss -> memory -> switch.
	c.AccessRange(0, 1000, 8192, false)
	if c.Ctr.SMTSwitches == 0 {
		t.Error("no SMT switches recorded on memory stalls")
	}
	if c.Ctr.FlushCycles != c.Ctr.SMTSwitches*DefaultCosts().FlushCyc {
		t.Error("flush cycle accounting inconsistent")
	}
	// At 4 threads there is no sibling and no flush penalty.
	ctxs, _ = m.Configure(4)
	c = ctxs[0]
	c.AccessRange(0, 1000, 8192, false)
	if c.Ctr.SMTSwitches != 0 {
		t.Error("flush penalty applied without a sibling")
	}
}

func TestFetchITLB(t *testing.T) {
	pt := pagetable.New()
	// Code segment: 1.6MB of 4K pages at 1GB.
	codeBase := units.Addr(units.GB)
	mapRange(t, pt, codeBase, int64(units.AlignUp(1600*units.KB, units.PageSize4K)), units.Size4K)
	m := New(Opteron270())
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(1)
	c := ctxs[0]
	c.Fetch(codeBase)
	if c.Ctr.ITLBL1Miss != 1 || c.Ctr.ITLBWalks != 1 {
		t.Errorf("cold fetch: %d misses %d walks", c.Ctr.ITLBL1Miss, c.Ctr.ITLBWalks)
	}
	c.Fetch(codeBase + 8)
	if c.Ctr.ITLBL1Miss != 1 {
		t.Error("same-page fetch missed")
	}
	// A hot loop over a few pages stays resident: no further misses.
	for i := 0; i < 1000; i++ {
		for p := 0; p < 4; p++ {
			c.Fetch(codeBase + units.Addr(p)*4096)
		}
	}
	if c.Ctr.ITLBL1Miss > 4 {
		t.Errorf("hot code misses = %d, want <= 4", c.Ctr.ITLBL1Miss)
	}
}

func TestTrueSharingMode(t *testing.T) {
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(XeonHT())
	m.Sharing = ShareTrue
	m.AttachProcess(pt)
	ctxs, err := m.Configure(8)
	if err != nil {
		t.Fatal(err)
	}
	// Siblings literally share the DTLB object.
	var sib *Context
	for _, c := range ctxs[1:] {
		if m.CoreOf(c) == m.CoreOf(ctxs[0]) {
			sib = c
			break
		}
	}
	if sib == nil {
		t.Fatal("no sibling found")
	}
	if ctxs[0].dtlb != sib.dtlb {
		t.Error("true-sharing siblings have distinct DTLBs")
	}
	// One sibling's fill is visible to the other: touch a page on ctx0;
	// sibling access is a hit (no walk).
	ctxs[0].Load(0)
	sib.Load(8)
	if sib.Ctr.DTLBWalks() != 0 {
		t.Error("sibling missed a translation the other thread loaded")
	}
}

func TestCoherentBusIntervention(t *testing.T) {
	model := Opteron270()
	model.Coherent = true
	pt := pagetable.New()
	mapRange(t, pt, 0, units.MB, units.Size4K)
	m := New(model)
	m.AttachProcess(pt)
	ctxs, _ := m.Configure(2)
	if m.Bus() == nil {
		t.Fatal("coherent model has no bus")
	}
	ctxs[0].Store(0)
	ctxs[1].Load(0) // must intervene: ctx0 holds the line Modified
	if m.Bus().Interventions() == 0 {
		t.Error("no cache-to-cache intervention recorded")
	}
}

func TestSecondsConversion(t *testing.T) {
	m := New(Opteron270())
	if s := m.Seconds(2e9); s != 1.0 {
		t.Errorf("2e9 cycles at 2GHz = %v s, want 1", s)
	}
}

func TestTable1Reaches(t *testing.T) {
	// The two load-bearing Table 1 facts.
	xeon, opt := New(XeonHT()), New(Opteron270())
	if got := xeon.TLBReach(units.Size2M); got != 64*units.MB {
		t.Errorf("Xeon 2MB reach = %s, want 64MB", units.HumanBytes(got))
	}
	if got := opt.TLBReach(units.Size2M); got != 16*units.MB {
		t.Errorf("Opteron 2MB reach = %s, want 16MB", units.HumanBytes(got))
	}
}

func TestNiagaraInterleavedScaling(t *testing.T) {
	// The Niagara extension model: 32 hardware threads, no flush penalty.
	m := New(NiagaraT1())
	m.AttachProcess(pagetable.New())
	if NiagaraT1().MaxThreads() != 32 {
		t.Fatal("T1 has 32 hardware threads")
	}
	ctxs, err := m.Configure(32)
	if err != nil {
		t.Fatal(err)
	}
	if !ctxs[0].HasSibling() {
		t.Error("fully loaded T1 cores have siblings")
	}
	if ctxs[0].smtFlush {
		t.Error("interleaved SMT must not flush on switch")
	}
	if _, ok := ModelByName("NiagaraT1"); !ok {
		t.Error("NiagaraT1 not discoverable by name")
	}
}
