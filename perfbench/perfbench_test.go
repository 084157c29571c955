package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestPercentileTailRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{50, 0.5, true}, {50, 0.8, true}, {50, 0.9, false},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	} {
		v, err := percentile(samples(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = %v, %v; want ok=%v", tc.n, tc.p, v, err, tc.ok)
		}
		if err == nil {
			if beyond := countAbove(samples(tc.n), v); beyond < minBeyond {
				t.Errorf("n=%d p=%g: %d samples beyond %v, want >= %d", tc.n, tc.p, beyond, v, minBeyond)
			}
		}
	}
	if v, _ := percentile(samples(50), 0.5); v != 25 {
		t.Errorf("p50 of 1..50 = %v, want 25", v)
	}
}

func countAbove(s []float64, v float64) int {
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}

func ids(cs []config) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.id()
	}
	return out
}

// take returns the ids of the next n requests of s, starting a new epoch
// whenever one ends.
func take(s *stream, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		c, ok := s.take()
		if !ok {
			s.nextEpoch()
			continue
		}
		out = append(out, c.id())
	}
	return out
}

// epoch returns the ids of the requests of the stream's current epoch.
func epoch(s *stream) []string {
	var out []string
	for c, ok := s.take(); ok; c, ok = s.take() {
		out = append(out, c.id())
	}
	return out
}

func TestSeedFixesInputs(t *testing.T) {
	order := func(seed uint64) []string { return ids(shuffled(fig4Grid(), newRand(seed, 1))) }
	if !reflect.DeepEqual(order(7), order(7)) {
		t.Error("fig4-sweep: same seed gave different cell orders")
	}
	if reflect.DeepEqual(order(7), order(8)) {
		t.Error("fig4-sweep: different seeds gave the same cell order")
	}
	if !reflect.DeepEqual(take(coldStream(7), 1000), take(coldStream(7), 1000)) {
		t.Error("serve-cold: same seed gave different request streams")
	}
	if reflect.DeepEqual(take(coldStream(7), 100), take(coldStream(8), 100)) {
		t.Error("serve-cold: different seeds gave the same request stream")
	}
}

func TestColdStreamEpochs(t *testing.T) {
	inSpace := map[string]bool{}
	for _, id := range ids(coldSpace()) {
		inSpace[id] = true
	}
	st := coldStream(3)
	var first []string
	for e := 0; e < 3; e++ {
		reqs := epoch(st)
		seen := map[string]bool{}
		var fresh []string
		for i, id := range reqs {
			if !inSpace[id] {
				t.Fatalf("epoch %d: request %s is outside serve-cold's space", e, id)
			}
			if seen[id] {
				if (i+1)%repeatEvery != 0 {
					t.Fatalf("epoch %d: request %d repeats %s outside the repeat slots", e, i, id)
				}
			} else {
				fresh = append(fresh, id)
			}
			seen[id] = true
		}
		if len(fresh) != len(inSpace) {
			t.Errorf("epoch %d sent %d distinct configs, want all %d", e, len(fresh), len(inSpace))
		}
		if repeats := len(reqs) - len(fresh); repeats != len(reqs)/repeatEvery {
			t.Errorf("epoch %d: %d of %d requests repeat, want %d", e, repeats, len(reqs), len(reqs)/repeatEvery)
		}
		for i, c := range coldOpening() {
			if fresh[i] != c.id() {
				t.Errorf("epoch %d: fresh request %d is %s, want the opening's %s", e, i, fresh[i], c.id())
			}
		}
		if e == 0 {
			first = reqs
		} else if reflect.DeepEqual(reqs, first) {
			t.Errorf("epoch %d repeats epoch 0's order", e)
		}
		st.nextEpoch()
	}
}

func TestDigestCheck(t *testing.T) {
	dig, err := loadDigests(".")
	if err != nil {
		t.Fatal(err)
	}
	all := allConfigs()
	for _, c := range all {
		if _, ok := dig[c.id()]; !ok {
			t.Fatalf("%s has no committed digest", c.id())
		}
	}
	if len(dig) != len(all) {
		t.Errorf("%d committed digests for %d configs; the config sets overlap or the file is stale", len(dig), len(all))
	}
	c := config{Class: "T", Kernel: "BT", Model: "Opteron270", Threads: 1, Policy: "2MB",
		Sharing: "partitioned", Barrier: "central"}
	res, err := coldResult(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := dig.check(c, res); err != nil {
		t.Fatalf("unchanged result: %v", err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := dig.checkRaw(c, raw); err != nil {
		t.Fatalf("unchanged served result: %v", err)
	}

	flipped := res
	flipped.Counters.L2Misses++
	if dig.check(c, flipped) == nil {
		t.Error("a result with one counter changed passed its digest check")
	}
	raw, err = json.Marshal(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if dig.checkRaw(c, raw) == nil {
		t.Error("a served result with one counter changed passed its digest check")
	}
}

func TestClientCount(t *testing.T) {
	for nproc := 1; nproc <= 64; nproc++ {
		if c := clientCount(nproc); c < 1 || c > nproc || c > 2 {
			t.Errorf("clientCount(%d) = %d, want 1..min(2, nproc)", nproc, c)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"hugeomp/internal/machine.(*Context).Access"}, "machine"},
		{[]string{"hugeomp/internal/memo/diskcache.(*Store).Get"}, "diskcache"},
		{[]string{"encoding/json.(*decodeState).object"}, "json"},
		{[]string{"net/http.(*conn).serve"}, "http"},
		{[]string{"syscall.Syscall6"}, "syscall"},
		{[]string{"internal/runtime/syscall.Syscall6"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.mallocgc"}, "gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"runtime.memmove", "hugeomp/internal/cache.(*Cache).Access"}, "runtime"},
		{[]string{"crypto/sha256.block"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestCPUProfileDropsClientSamples(t *testing.T) {
	p := newCPUProfile()
	p.resume()
	if p.err != nil {
		t.Skip("cpu profiling unavailable:", p.err)
	}
	busy := func(n int) (x float64) {
		for i := 0; i < n; i++ {
			x += float64(i % 7)
		}
		return x
	}
	var x float64
	asClient(func() { x += busy(200_000_000) })
	if err := p.pause(); err != nil {
		t.Fatal(err)
	}
	if got := total(p.folded); got != 0 {
		t.Errorf("labelled client work folded to %v ms, want 0", got)
	}
	p.resume()
	x += busy(100_000_000)
	if err := p.pause(); err != nil {
		t.Fatal(err)
	}
	if got := total(p.folded); got <= 0 || x == 0 {
		t.Errorf("profile of an unlabelled busy loop folded to %v ms", got)
	}
}

func total(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
