// Package cache implements the set-associative write-back data caches of the
// simulated processors, plus a snooping bus that keeps private caches
// coherent with a MESI protocol (the paper's Opterons keep their private
// 1 MB L2s coherent by snooping over HyperTransport; the Xeon cores share an
// L2 per chip instead).
//
// Caches are owned by one simulated context and are not goroutine-safe. The
// machine layer either partitions shared caches among co-scheduled contexts
// (its default deterministic model) or serialises access through the Bus.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"hugeomp/internal/units"
)

// State is a MESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	default:
		return "M"
	}
}

// Config sizes a cache.
type Config struct {
	SizeBytes int64
	Ways      int
	LineSize  int64 // defaults to units.CacheLineSize
}

// Result reports what an access did.
type Result struct {
	Hit       bool
	Writeback bool // a dirty (Modified) line was evicted
	Evicted   uint64
	HadEvict  bool
}

// maxAssoc bounds associativity to what the packed per-set metadata encodes:
// a 4-bit way ID per LRU-order position and a 2-bit MESI state per way. The
// paper-era processors top out at 16 ways, and the bound is what makes every
// set's replacement and coherence state one 16-byte control block.
const maxAssoc = 16

// Cache is one set-associative write-back LRU cache level.
//
// The simulated access path is the hottest loop in the simulator, so the
// per-set metadata is packed and interleaved to minimise distinct host cache
// lines touched per simulated access. Each set owns one contiguous block of
// uint64 words (block 0 on a 64-byte host line boundary):
//
//   - word 0 is the LRU order nibble vector (owner-only): nibble 0 is the
//     MRU way ID, nibble assoc-1 the LRU victim. A recency refresh is a
//     shift-and-insert, eviction recycles the top nibble, and the whole
//     "stamp scan" of a timestamp scheme disappears — victim selection
//     reads one word;
//
//   - word 1 holds the 2-bit MESI states, atomically accessed when
//     bus-attached: the per-set valid count is a popcount, and "first
//     Invalid way by index" — the victim preference that keeps the old scan
//     order — is a bit trick on the inverted presence mask;
//
//   - words 2.. hold the ways' 32-bit set-relative tags
//     (lineAddr >> setBits), two per word in ascending way order.
//
// Order, states and a 16-way set's tags together are 80 bytes, so a whole
// set's replacement, coherence and residency metadata lands on one or two
// adjacent host lines instead of the three scattered arrays of the previous
// layout; a 2-way set (the Opteron L1) is one 32-byte half-line.
//
// Concurrency roles when the cache is attached to a Bus: tags, the order
// word and priv are written only by the owning context's goroutine (fills
// happen inside that context's own bus transactions), so the lock-free fast
// path may read them plainly. The states word is the one field peers mutate
// (invalidations and downgrades on behalf of other caches' transactions), so
// every cross-goroutine access to it goes through sync/atomic — peer-side
// transitions are CAS loops, and the owner's lock-free E→M promotion is a
// CAS that simply fails into the locked slow path if a peer transition wins
// the race (a peer's change to any way of the set changes the word, which
// only makes the owner's CAS conservatively fail). Peers never touch the
// order word: an invalidated way simply stays in recency position until the
// owner recycles it through the first-Invalid victim rule.
type cacheFields struct {
	// blocks holds the per-set metadata blocks, blockWords words per set:
	// word 0 order, word 1 states, words 2.. tags. Aligned so block 0
	// starts on a 64-byte host line.
	//
	// The states word (index bb+1 of a set's block) is the CAS-published
	// word peers mutate, so every access to it — owner and peer alike —
	// must go through sync/atomic on &blocks[bb+1]; the order and tag
	// words are owner-only (peer-side transitions never touch them) and
	// are read and written plainly. The //simlint:atomic annotation is
	// deliberately absent: it is field-granular, and this field packs the
	// one atomic word per set between owner-only words, so annotating it
	// would force ignores onto every plain tag/order access instead of
	// protecting the states word. Grep for `blocks[bb+1]` when auditing:
	// a plain access to that index is a bug.
	blocks []uint64
	priv   []uint64 // per-line private-fill stamps (see FastAccess)

	assoc      int
	sets       int
	setMask    uint64
	setBits    uint
	blockWords int    // words per set block: 2 + ceil(assoc/2)
	orderMask  uint64 // low assoc nibbles
	presMask   uint32 // low assoc 2-bit fields, 01 pattern
	lineShift  uint

	id  int  // position on the bus, -1 if not attached
	bus *Bus // nil when coherence is disabled

	// mu serialises bus-side operations on this cache: a sharded-bus
	// transaction on one line can evict this cache's copy of a line from a
	// different shard, so shard locks alone cannot protect the line arrays.
	// The raw single-owner methods (Access, Probe, …) do not take it.
	mu sync.Mutex
}

// Cache pads its fields to a whole number of 64-byte host cache lines so
// that adjacently allocated caches (the machine layer builds one per
// context, back to back) never false-share a line between one cache's
// mutable tail fields (mu) and the next one's slice headers. The
// whole-lines layout is checked by simlint's padding analyzer.
//
//simlint:padded
type Cache struct {
	cacheFields
	_ [(64 - unsafe.Sizeof(cacheFields{})%64) % 64]byte
}

// geometry derives cfg's line size, associativity and set count, or
// reports why cfg has no packed set-indexed layout.
func (cfg Config) geometry() (ls int64, assoc, sets int, err error) {
	ls = cfg.LineSize
	if ls == 0 {
		ls = units.CacheLineSize
	}
	nLines := int(cfg.SizeBytes / ls)
	if nLines <= 0 {
		return 0, 0, 0, errors.New("cache: zero size")
	}
	assoc = cfg.Ways
	if assoc <= 0 || assoc > nLines {
		assoc = nLines
	}
	sets = nLines / assoc
	switch {
	case sets*assoc != nLines:
		err = fmt.Errorf("cache: %d lines not divisible by %d ways", nLines, assoc)
	case sets&(sets-1) != 0:
		err = fmt.Errorf("cache: set count %d not a power of two", sets)
	case assoc > maxAssoc:
		err = fmt.Errorf("cache: associativity %d exceeds the packed-set limit of %d ways (give the config an explicit, hardware-like way count)", assoc, maxAssoc)
	}
	return ls, assoc, sets, err
}

// Validate reports whether New can build cfg: it rejects exactly the
// configs New panics on.
func (cfg Config) Validate() error {
	_, _, _, err := cfg.geometry()
	return err
}

// New builds a cache from cfg. It panics on a config Validate rejects.
func New(cfg Config) *Cache {
	ls, assoc, sets, err := cfg.geometry()
	if err != nil {
		panic(err.Error())
	}
	nLines := sets * assoc
	shift := uint(0)
	for 1<<shift != ls {
		shift++
	}
	orderMask := ^uint64(0)
	if assoc < 16 {
		orderMask = (uint64(1) << (4 * assoc)) - 1
	}
	// The per-set block is exactly order + states + tag words — padding it
	// (say to a power of two) would inflate the metadata footprint past the
	// host L2 working set for the big simulated L2s, which costs more than
	// the multiply in the index computation. Over-allocate so block 0 can
	// be placed on a 64-byte host line boundary.
	blockWords := 2 + (assoc+1)/2
	raw := make([]uint64, sets*blockWords+7)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % 64; rem != 0 {
		off = int((64 - rem) / 8)
	}
	c := &Cache{}
	c.cacheFields = cacheFields{
		blocks:     raw[off : off+sets*blockWords],
		priv:       make([]uint64, nLines),
		assoc:      assoc,
		sets:       sets,
		setMask:    uint64(sets - 1),
		setBits:    uint(bits.TrailingZeros64(uint64(sets))),
		blockWords: blockWords,
		orderMask:  orderMask,
		presMask:   uint32(0x55555555) & uint32((uint64(1)<<(2*assoc))-1),
		lineShift:  shift,
		id:         -1,
	}
	c.resetOrder()
	return c
}

// resetOrder sets every set's recency vector to the identity permutation
// (all ways invalid, so the order is arbitrary but deterministic).
func (c *cacheFields) resetOrder() {
	var ident uint64
	for w := c.assoc - 1; w >= 0; w-- {
		ident = ident<<4 | uint64(w)
	}
	for s := 0; s < c.sets; s++ {
		c.blocks[s*c.blockWords] = ident
	}
}

// tagAt reads way w's tag from the set block starting at word bb.
func (c *cacheFields) tagAt(bb, w int) uint32 {
	return uint32(c.blocks[bb+2+(w>>1)] >> (32 * uint(w&1)))
}

// setTag writes way w's tag in the set block starting at word bb.
// Owner-only, like the order word.
func (c *cacheFields) setTag(bb, w int, tag uint32) {
	i := bb + 2 + (w >> 1)
	sh := 32 * uint(w&1)
	c.blocks[i] = c.blocks[i]&^(uint64(0xffffffff)<<sh) | uint64(tag)<<sh
}

// tagOf splits a line address into its set-relative tag.
func (c *cacheFields) tagOf(lineAddr uint64) uint32 { return uint32(lineAddr >> c.setBits) }

// lineOf reconstructs a line address from a set and a stored tag.
func (c *cacheFields) lineOf(set int, tag uint32) uint64 {
	return uint64(tag)<<c.setBits | uint64(set)
}

// stateOf extracts way w's MESI state from a states word.
func stateOf(word uint64, w int) State { return State((word >> (2 * uint(w))) & 3) }

// setNibble returns word with way w's 2-bit state replaced by st.
func setNibble(word uint64, w int, st State) uint64 {
	sh := 2 * uint(w)
	return word&^(3<<sh) | uint64(st)<<sh
}

// present returns the 01-pattern mask of valid ways in a states word.
func (c *cacheFields) present(word uint64) uint32 {
	v := uint32(word)
	return (v | v>>1) & c.presMask
}

// statesWord reads set s's packed states with an atomic load (safe against
// concurrent peer transitions; on the owner's goroutine the value cannot go
// stale for owner-held decisions — see the cacheFields doc).
func (c *cacheFields) statesWord(s int) uint64 {
	return atomic.LoadUint64(&c.blocks[s*c.blockWords+1])
}

// touchOrder moves way w to the MRU front of the order vector. pos is found
// with a SWAR zero-nibble search: the permutation holds w exactly once in
// the low assoc nibbles, and the borrow trick flags the lowest zero nibble
// exactly.
func touchOrder(order uint64, w int) uint64 {
	if order&0xF == uint64(w) {
		return order
	}
	x := order ^ (uint64(w) * 0x1111111111111111)
	p := uint(bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888)) / 4
	below := order & ((uint64(1) << (4 * p)) - 1)
	var above uint64
	if p < 15 {
		above = order &^ ((uint64(1) << (4 * (p + 1))) - 1)
	}
	return above | below<<4 | uint64(w)
}

// LineAddr converts a physical address into a line number.
func (c *Cache) LineAddr(pa units.Addr) uint64 { return uint64(pa) >> c.lineShift }

// Sets returns the number of sets (the machine layer's run batching requires
// the lines of one bus shard group to map to distinct sets).
func (c *Cache) Sets() int { return c.sets }

// Access looks up the line containing pa; on a miss it fills the line,
// evicting the set's LRU way. write marks the line dirty (Modified).
// Coherence (if the cache is attached to a Bus) is handled by the caller via
// Bus.Access; this method is the raw, single-owner path.
//
//simlint:hotpath
func (c *Cache) Access(lineAddr uint64, write bool) Result {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	order := c.blocks[bb]
	word := atomic.LoadUint64(&c.blocks[bb+1])
	// Set-indexed probe: the MRU head resolves repeat accesses to the same
	// line without scanning the set at all.
	if h := int(order & 0xF); c.tagAt(bb, h) == tag && stateOf(word, h) != Invalid {
		if write && stateOf(word, h) != Modified {
			atomic.StoreUint64(&c.blocks[bb+1], setNibble(word, h, Modified))
		}
		return Result{Hit: true}
	}
	// Hit scan: the set's own block of tag words, one load per word with
	// both halves compared, in ascending way order so a stale invalid
	// duplicate (always at a higher way than the valid copy) can never
	// shadow the real line. An odd-assoc set's unused top half can only
	// phantom-match as way assoc, whose state bits are never set, so the
	// Invalid check rejects it.
	pat := uint64(tag) | uint64(tag)<<32
	for wi := 2; wi < c.blockWords; wi++ {
		x := c.blocks[bb+wi] ^ pat
		if uint32(x) == 0 {
			if w := 2 * (wi - 2); stateOf(word, w) != Invalid {
				c.blocks[bb] = touchOrder(order, w)
				if write && stateOf(word, w) != Modified {
					atomic.StoreUint64(&c.blocks[bb+1], setNibble(word, w, Modified))
				}
				return Result{Hit: true}
			}
		}
		if x>>32 == 0 {
			if w := 2*(wi-2) + 1; stateOf(word, w) != Invalid {
				c.blocks[bb] = touchOrder(order, w)
				if write && stateOf(word, w) != Modified {
					atomic.StoreUint64(&c.blocks[bb+1], setNibble(word, w, Modified))
				}
				return Result{Hit: true}
			}
		}
	}
	// Miss: choose victim — first Invalid way by index if the set has any,
	// else the LRU tail nibble (exact-order LRU).
	res := Result{}
	var victim int
	if inv := ^c.present(word) & c.presMask; inv != 0 {
		victim = bits.TrailingZeros32(inv) / 2
		c.blocks[bb] = touchOrder(order, victim)
	} else {
		victim = int(order >> (4 * uint(c.assoc-1)) & 0xF)
		res.HadEvict = true
		res.Evicted = c.lineOf(set, c.tagAt(bb, victim))
		res.Writeback = stateOf(word, victim) == Modified
		// Recycling the tail is a rotate: every other way ages one recency
		// position and the refilled way re-enters at the front.
		c.blocks[bb] = (order<<4 | uint64(victim)) & c.orderMask
	}
	st := Exclusive
	if write {
		st = Modified
	}
	c.setTag(bb, victim, tag)
	atomic.StoreUint64(&c.blocks[bb+1], setNibble(word, victim, st))
	return res
}

// FastAccess is the contention-free private-line fast path: a hit probe that
// takes neither the bus shard lock nor the per-cache mutex. It serves the
// access and reports true only when doing so requires no bus transaction:
//
//   - a read hit on any valid copy (M, E or S reads never generate traffic);
//   - a write hit on a Modified line (no transition);
//   - a write hit on an Exclusive line whose private-fill stamp still equals
//     the line's bus shard generation — proof that no cross-cache transition
//     has touched the shard since this cache filled the line private, so the
//     silent E→M promotion MESI grants an exclusive owner applies. The
//     promotion itself is a CAS on the set's states word that loses
//     gracefully to any racing peer transition in the set (the caller then
//     retries through the locked bus path).
//
// Everything else (misses, write-upgrades of Shared lines, stale stamps)
// returns false and must go through Bus.Access. Call only from the owning
// context's goroutine with the cache attached to a bus.
//
//simlint:hotpath
func (c *Cache) FastAccess(lineAddr uint64, write bool) bool {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	pat := uint64(tag) | uint64(tag)<<32
	for wi := 2; wi < c.blockWords; wi++ {
		x := c.blocks[bb+wi] ^ pat
		var w int
		switch {
		case uint32(x) == 0:
			w = 2 * (wi - 2)
		case x>>32 == 0:
			w = 2*(wi-2) + 1
		default:
			continue
		}
		word := atomic.LoadUint64(&c.blocks[bb+1])
		st := stateOf(word, w)
		switch {
		case st == Invalid:
			return false // stale tag; the locked path refills
		case !write || st == Modified:
			c.blocks[bb] = touchOrder(c.blocks[bb], w)
			return true
		case st == Exclusive:
			sh := c.bus.shard(lineAddr)
			if c.priv[set*c.assoc+w] != sh.xgen.Load() {
				return false // shard saw cross-cache traffic since the fill
			}
			if !atomic.CompareAndSwapUint64(&c.blocks[bb+1],
				word, setNibble(word, w, Modified)) {
				return false // a peer transition won the race
			}
			c.blocks[bb] = touchOrder(c.blocks[bb], w)
			return true
		default: // Shared write: needs an invalidating upgrade transaction
			return false
		}
	}
	return false
}

// stampPrivate records the current shard generation on lineAddr's slot after
// a private (Exclusive) fill, arming the lock-free E→M promotion. Owner-only
// state; called from the filling transaction.
func (c *cacheFields) stampPrivate(lineAddr uint64, gen uint64) {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	word := c.statesWord(set)
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) == tag && stateOf(word, w) != Invalid {
			c.priv[set*c.assoc+w] = gen
			return
		}
	}
}

// Probe reports the state of lineAddr without touching LRU state.
func (c *Cache) Probe(lineAddr uint64) State {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	word := c.statesWord(set)
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) == tag && stateOf(word, w) != Invalid {
			return stateOf(word, w)
		}
	}
	return Invalid
}

func (c *Cache) setState(lineAddr uint64, st State) {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) != tag {
			continue
		}
		for {
			word := c.statesWord(set)
			if stateOf(word, w) == Invalid {
				return
			}
			if atomic.CompareAndSwapUint64(&c.blocks[bb+1],
				word, setNibble(word, w, st)) {
				return
			}
		}
	}
}

// lockedAccess is Access under the cache's bus-side mutex.
func (c *Cache) lockedAccess(lineAddr uint64, write bool) Result {
	c.mu.Lock()
	res := c.Access(lineAddr, write)
	c.mu.Unlock()
	return res
}

// lockedSetState is setState under the cache's bus-side mutex.
func (c *Cache) lockedSetState(lineAddr uint64, st State) {
	c.mu.Lock()
	c.setState(lineAddr, st)
	c.mu.Unlock()
}

// invalidateSlot atomically removes lineAddr (if present) and returns the
// state it held. The transition is a CAS loop because the line's owner may
// concurrently promote E→M through the lock-free fast path; the loop
// re-reads so a promoted line is correctly observed (and billed) as
// Modified. Caller holds c.mu.
func (c *cacheFields) invalidateSlot(lineAddr uint64) State {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) != tag {
			continue
		}
		for {
			word := c.statesWord(set)
			st := stateOf(word, w)
			if st == Invalid {
				return Invalid
			}
			if atomic.CompareAndSwapUint64(&c.blocks[bb+1],
				word, setNibble(word, w, Invalid)) {
				return st
			}
		}
	}
	return Invalid
}

// downgradeSlot atomically moves lineAddr (if present) to Shared and returns
// the state it held; CAS loop for the same reason as invalidateSlot. Caller
// holds c.mu.
func (c *cacheFields) downgradeSlot(lineAddr uint64) State {
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) != tag {
			continue
		}
		for {
			word := c.statesWord(set)
			st := stateOf(word, w)
			if st == Invalid || st == Shared {
				return st
			}
			if atomic.CompareAndSwapUint64(&c.blocks[bb+1],
				word, setNibble(word, w, Shared)) {
				return st
			}
		}
	}
	return Invalid
}

// invalidate is invalidateSlot under the bus-side mutex.
func (c *Cache) invalidate(lineAddr uint64) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidateSlot(lineAddr)
}

// downgrade is downgradeSlot under the bus-side mutex.
func (c *Cache) downgrade(lineAddr uint64) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.downgradeSlot(lineAddr)
}

// Flush invalidates every line, returning the number of dirty lines written
// back.
func (c *Cache) Flush() int {
	dirty := 0
	for s := 0; s < c.sets; s++ {
		bb := s * c.blockWords
		word := c.statesWord(s)
		for w := 0; w < c.assoc; w++ {
			if stateOf(word, w) == Modified {
				dirty++
			}
		}
		atomic.StoreUint64(&c.blocks[bb+1], 0)
		for i := bb + 2; i < bb+2+(c.assoc+1)/2; i++ {
			c.blocks[i] = 0
		}
	}
	for i := range c.priv {
		c.priv[i] = 0
	}
	c.resetOrder()
	return dirty
}

// Snapshot returns every valid line's coherence state, keyed by line
// address, under the bus-side lock — the raw material for the MESI audit in
// internal/check. Call only when no traffic is in flight.
func (c *Cache) Snapshot() map[uint64]State {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]State)
	for s := 0; s < c.sets; s++ {
		word := c.statesWord(s)
		for w := 0; w < c.assoc; w++ {
			if st := stateOf(word, w); st != Invalid {
				out[c.lineOf(s, c.tagAt(s*c.blockWords, w))] = st
			}
		}
	}
	return out
}

// ForceState overwrites the state of lineAddr if the cache holds it,
// reporting whether it did. It exists so the checker's own tests can corrupt
// MESI state and prove the audit is not vacuously green; simulation code
// must never call it.
func (c *Cache) ForceState(lineAddr uint64, st State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := int(lineAddr & c.setMask)
	bb := set * c.blockWords
	tag := c.tagOf(lineAddr)
	word := c.statesWord(set)
	for w := 0; w < c.assoc; w++ {
		if c.tagAt(bb, w) == tag && stateOf(word, w) != Invalid {
			atomic.StoreUint64(&c.blocks[bb+1], setNibble(word, w, st))
			return true
		}
	}
	return false
}

// Live returns the number of valid lines.
func (c *Cache) Live() int {
	n := 0
	for s := 0; s < c.sets; s++ {
		n += bits.OnesCount32(c.present(c.statesWord(s)))
	}
	return n
}

// Lines returns total capacity in lines.
func (c *Cache) Lines() int { return c.sets * c.assoc }
