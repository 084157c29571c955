// Corpus for the determinism analyzer: true negatives — the documented
// order-insensitive sinks and sorted-key idioms must not be flagged.
package a

import "sort"

// Collect-then-sort: the canonical sorted-key iteration.
func sortedKeys(m map[int]uint64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Tid-ordered merge: sorted keys drive a deterministic second pass.
func tidOrderedMerge(byTid map[int]uint64) []uint64 {
	tids := make([]int, 0, len(byTid))
	for tid := range byTid {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	out := make([]uint64, 0, len(tids))
	for _, tid := range tids {
		out = append(out, byTid[tid])
	}
	return out
}

// Integer accumulation, keyed writes, min/max folds and counters all
// commute across iteration order.
func folds(m map[int]uint64) (uint64, uint64, int) {
	var total, maxv uint64
	n := 0
	hist := map[int]uint64{}
	for k, v := range m {
		total += v
		hist[k] = v
		if v > maxv {
			maxv = v
		}
		n++
	}
	return total, maxv, n
}

// Loop-local scratch state may do anything; only escaping writes matter.
func locals(m map[int]uint64, floor uint64) uint64 {
	var peak uint64
	for _, v := range m {
		t := v
		if t < floor {
			t = floor
		}
		if t > peak {
			peak = t
		}
	}
	return peak
}

// delete with the iteration key commutes across distinct keys.
func drain(done map[int]bool, pending map[int]int) {
	for k := range done {
		delete(pending, k)
	}
}

// Sorting through sort.Slice after collecting values is the report path's
// idiom (the comparator must break ties deterministically — reviewed, not
// machine-checked).
func collectSorted(m map[string]uint64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// Struct-field counters behind a map lookup commute (integer increments).
func fieldCounters(snap map[uint64]int, agg map[uint64]*struct{ a, b int }) {
	for line, st := range snap {
		o := agg[line]
		if o == nil {
			o = &struct{ a, b int }{}
			agg[line] = o
		}
		switch st {
		case 0:
			o.a++
		default:
			o.b++
		}
	}
}
