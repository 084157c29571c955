package tlb

import (
	"fmt"
	"strings"

	"hugeomp/internal/units"
)

// LevelSpec sizes one TLB level, with separate entry classes per page size
// (processors of the paper's era kept distinct, smaller arrays for large
// pages).
type LevelSpec struct {
	E4K Config // 4 KB-entry class
	E2M Config // 2 MB-entry class
}

// Spec sizes a full two-level TLB stack (L1 + optional L2).
type Spec struct {
	Name string
	L1   LevelSpec
	L2   LevelSpec // zero Entries = no second level
}

// Halve returns a Spec with every structure at half capacity (minimum one
// entry per present structure). This models the paper's observation that
// with two SMT threads per core "the effective number of TLB entries could
// potentially be halved".
func (s Spec) Halve() Spec {
	h := func(c Config) Config {
		if c.Entries == 0 {
			return c
		}
		e := c.Entries / 2
		if e < 1 {
			e = 1
		}
		w := c.Ways
		if w > e {
			w = e
		}
		return Config{Entries: e, Ways: w}
	}
	return Spec{
		Name: s.Name + "/smt-half",
		L1:   LevelSpec{E4K: h(s.L1.E4K), E2M: h(s.L1.E2M)},
		L2:   LevelSpec{E4K: h(s.L2.E4K), E2M: h(s.L2.E2M)},
	}
}

// Validate reports whether NewHierarchy can build s: it rejects exactly
// the specs NewHierarchy panics on.
func (s Spec) Validate() error {
	for _, c := range [...]Config{s.L1.E4K, s.L1.E2M, s.L2.E4K, s.L2.E2M} {
		if _, _, err := c.geometry(); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

// Coverage returns the bytes of address space the whole stack can map for
// the given page size (the paper's Table 1 "Coverage" rows).
func (s Spec) Coverage(size units.PageSize) int64 {
	var entries int
	if size == units.Size2M {
		entries = s.L1.E2M.Entries + s.L2.E2M.Entries
	} else {
		entries = s.L1.E4K.Entries + s.L2.E4K.Entries
	}
	return int64(entries) * size.Bytes()
}

// Outcome classifies a TLB access.
type Outcome uint8

const (
	HitL1 Outcome = iota
	HitL2
	Miss
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	default:
		return "miss"
	}
}

// Hierarchy is an instantiated two-level split-size TLB stack for one
// context (one ITLB or one DTLB).
//
// A per-size-class union presence filter counts the valid entries of both
// levels per hash slot, so a full-stack miss — the expensive outcome that
// otherwise probes up to two structures before walking — is answered with a
// single load. The count is exact (every fill, eviction, promotion and
// shootdown adjusts it), so a filtered miss is byte-identical to the probed
// cascade it skips.
type Hierarchy struct {
	spec Spec
	l1   [units.NumPageSizes]*TLB
	l2   [units.NumPageSizes]*TLB

	filt     [units.NumPageSizes][]uint16
	filtMask [units.NumPageSizes]uint64
}

// NewHierarchy instantiates spec.
func NewHierarchy(spec Spec) *Hierarchy {
	h := &Hierarchy{spec: spec}
	h.l1[units.Size4K] = New(spec.L1.E4K)
	h.l1[units.Size2M] = New(spec.L1.E2M)
	h.l2[units.Size4K] = New(spec.L2.E4K)
	h.l2[units.Size2M] = New(spec.L2.E2M)
	for _, size := range [...]units.PageSize{units.Size4K, units.Size2M} {
		total := h.l1[size].Entries() + h.l2[size].Entries()
		if total == 0 {
			continue
		}
		slots := 16
		for slots < 8*total {
			slots <<= 1
		}
		h.filt[size] = make([]uint16, slots)
		h.filtMask[size] = uint64(slots - 1)
	}
	return h
}

func (h *Hierarchy) unionAdd(size units.PageSize, vpn uint64) {
	if f := h.filt[size]; f != nil {
		f[vpn&h.filtMask[size]]++
	}
}

func (h *Hierarchy) unionDel(size units.PageSize, vpn uint64) {
	if f := h.filt[size]; f != nil {
		f[vpn&h.filtMask[size]]--
	}
}

// Spec returns the hierarchy's configuration.
func (h *Hierarchy) Spec() Spec { return h.spec }

// Access probes the stack for vpn of the given page-size class; write
// accesses require an entry with the W bit. A second-level hit promotes the
// entry into L1. On a full miss (or W-bit microfault) the caller must
// perform a page walk and then call Fill.
//
//simlint:hotpath
func (h *Hierarchy) Access(vpn uint64, size units.PageSize, write bool) Outcome {
	if f := h.filt[size]; f != nil && f[vpn&h.filtMask[size]] == 0 {
		// Resident in neither level: one load replaces the full cascade.
		// Misses never touch recency state, so only the per-structure miss
		// counters need recording.
		h.l1[size].countMiss()
		h.l2[size].countMiss()
		return Miss
	}
	if h.l1[size].Lookup(vpn, write) {
		return HitL1
	}
	if e, ok := h.l2[size].LookupEntry(vpn, write); ok {
		// Promote to L1 exclusively: the entry moves up and the L1 victim
		// falls back to L2, so the stack's effective capacity is L1+L2 —
		// how the Opteron's two-level DTLB behaves in aggregate. The vpn
		// itself moves between levels (count-neutral net of the two
		// adjustments); only collateral evictions leave the stack.
		h.l2[size].Invalidate(vpn)
		h.unionDel(size, vpn)
		ev, evOK, ip := h.l1[size].InsertEx(vpn, e.Writable)
		if !ip {
			h.unionAdd(size, vpn)
		}
		if evOK {
			h.demote(size, ev)
		}
		return HitL2
	}
	return Miss
}

// demote pushes an L1 evictee down into L2, keeping the union filter exact:
// the entry's own move is count-neutral unless L2 already held a copy, and
// whatever its insertion evicts from L2 leaves the stack.
func (h *Hierarchy) demote(size units.PageSize, ev Entry) {
	if h.l2[size] == nil {
		// No second level (e.g. the Opteron's 2 MB class): the evictee
		// leaves the stack entirely.
		h.unionDel(size, ev.VPN)
		return
	}
	ev2, ev2OK, ip2 := h.l2[size].InsertEx(ev.VPN, ev.Writable)
	if ip2 {
		h.unionDel(size, ev.VPN)
	}
	if ev2OK {
		h.unionDel(size, ev2.VPN)
	}
}

// L1HitAt validates a memoised L1 way handle for the given size class: if
// way idx still holds vpn with sufficient permission it performs exactly the
// mutation a Lookup hit would (recency refresh, hit accounting) and reports
// true. A false return has no effect and the caller must run the full
// Access/walk sequence. Handles come from L1MRUWay.
//
//simlint:hotpath
func (h *Hierarchy) L1HitAt(size units.PageSize, idx int, vpn uint64, write bool) bool {
	return h.l1[size].HitAt(idx, vpn, write)
}

// L1MRUWay returns a memoisable handle for vpn in the L1 structure of the
// given size class, or -1. Every translation just resolved through Access or
// Fill sits at its set's MRU position, so the handle is O(1) to produce.
func (h *Hierarchy) L1MRUWay(size units.PageSize, vpn uint64) int {
	return h.l1[size].MRUWay(vpn)
}

// Fill installs a translation after a page walk.
//
//simlint:hotpath
func (h *Hierarchy) Fill(vpn uint64, size units.PageSize, writable bool) {
	ev, evOK, ip := h.l1[size].InsertEx(vpn, writable)
	if !ip {
		h.unionAdd(size, vpn)
	}
	if evOK {
		h.demote(size, ev)
	}
}

// Invalidate performs a shootdown of vpn in every level of its size class.
func (h *Hierarchy) Invalidate(vpn uint64, size units.PageSize) {
	if h.l1[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
	if h.l2[size].Invalidate(vpn) {
		h.unionDel(size, vpn)
	}
}

// Flush empties every structure (a full TLB flush, e.g. on context switch in
// the paper-era processors without ASIDs; our SMT model keeps per-context
// stacks instead, so this is used mainly by tests and by region resets).
func (h *Hierarchy) Flush() {
	for i := range h.l1 {
		h.l1[i].Flush()
		h.l2[i].Flush()
	}
	for _, f := range h.filt {
		for i := range f {
			f[i] = 0
		}
	}
}

// VisitEntries calls f for every valid entry across both levels and both
// size classes, reporting the level (1 or 2) and page size alongside the
// entry. Used by the post-run TLB-vs-pagetable consistency audit.
func (h *Hierarchy) VisitEntries(f func(level int, size units.PageSize, e Entry)) {
	for _, size := range [...]units.PageSize{units.Size4K, units.Size2M} {
		sz := size
		h.l1[sz].Visit(func(e Entry) { f(1, sz, e) })
		h.l2[sz].Visit(func(e Entry) { f(2, sz, e) })
	}
}

// String summarises the stack.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: L1[4K %d/%dw, 2M %d/%dw]",
		h.spec.Name, h.spec.L1.E4K.Entries, h.spec.L1.E4K.Ways,
		h.spec.L1.E2M.Entries, h.spec.L1.E2M.Ways)
	if h.spec.L2.E4K.Entries > 0 || h.spec.L2.E2M.Entries > 0 {
		fmt.Fprintf(&b, " L2[4K %d/%dw, 2M %d/%dw]",
			h.spec.L2.E4K.Entries, h.spec.L2.E4K.Ways,
			h.spec.L2.E2M.Entries, h.spec.L2.E2M.Ways)
	}
	return b.String()
}
