// Corpus for the determinism analyzer: true positives.
package a

import "fmt"

func floatAccum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `does not commute`
	}
	return sum
}

func unsortedKeys(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `without sorting it afterwards`
	}
	return keys
}

func earlyReturn(m map[int]int) error {
	for k, v := range m {
		if v < 0 {
			return fmt.Errorf("bad %d", k) // want `order-dependent entry`
		}
	}
	return nil
}

func sideEffects(m map[int]int, sink func(int)) {
	for k := range m {
		sink(k) // want `statement with side effects`
	}
}

func anyKey(m map[int]int) int {
	for k := range m {
		return k // want `order-dependent entry`
	}
	return -1
}

func breakOut(m map[int]int, stop int) int {
	n := 0
	for k := range m {
		if k == stop {
			break // want `depend on iteration order`
		}
		n++
	}
	return n
}

func stringConcat(m map[int]string) string {
	var s string
	for _, v := range m {
		s += v // want `does not commute`
	}
	return s
}

func plainOverwrite(m map[int]int) int {
	last := 0
	for k := range m {
		last = k // want `assignment to last outside the loop`
	}
	return last
}
