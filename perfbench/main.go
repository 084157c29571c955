// Command perfbench is the repository's end-to-end benchmark: it drives the
// simulator through the public functions of npb, core and simsrv, times
// those calls from outside, checks every simulated result against a
// committed digest, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 45 --trace 0
//
// Workloads:
//
//   - fig4-sweep: cold npb.Run of the paper's Fig-4 grid at class W, one
//     cell at a time.
//   - serve-cold: fresh simsrv servers with simd's defaults and empty disk
//     caches; closed-loop clients post a seeded class-T stream in which a
//     quarter of requests repeat an earlier config.
//
// With -trace 1 the run records spans around every call it makes and a CPU
// profile folded by package, and prints per-layer metrics instead of the
// end-to-end ones. With -update-digests it recomputes digests.txt.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	root    string // checkout root
	work    string // scratch directory under .bench_build
	seed    uint64
	seconds time.Duration
	clients int
	dig     digests
	tr      *tracer     // nil unless traced
	prof    *cpuProfile // nil unless traced; covers the timed phase only
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 101

// setUp times the workload's set-up step setupReps times and records the
// median as setup_s. The step returns a function that undoes it; it is
// called, outside the timing, for every repetition but the last, whose
// state the timed phase uses.
func setUp(out *outcome, step func() (discard func(), err error)) error {
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		discard, err := step()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 && discard != nil {
			discard()
		}
	}
	out.e2e["setup_s"] = median(times)
	return nil
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // end-to-end values by metric name
	layers            map[string]float64 // per-layer values (traced runs)
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*env) (*outcome, error){
	"fig4-sweep": fig4Sweep,
	"serve-cold": serveCold,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "checkout root")
	name := flag.String("workload", "", "workload: fig4-sweep or serve-cold")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 45, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	update := flag.Bool("update-digests", false, "recompute perfbench/digests.txt with cold runs and exit")
	flag.Parse()

	benchDir := filepath.Join(*root, "perfbench")
	if *update {
		return updateDigests(benchDir, runtime.GOMAXPROCS(0))
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	dig, err := loadDigests(benchDir)
	if err != nil {
		return err
	}
	outDir := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{
		root: *root, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		clients: clientCount(runtime.NumCPU()), dig: dig,
	}
	if *traceFlag == 1 {
		e.tr, e.prof = newTracer(), newCPUProfile()
	}
	out, err := w(e)
	if err != nil {
		return err
	}
	if e.prof != nil {
		addProfile(out, e.prof.folded)
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()

	if err := printJSON(map[string]any{"host": fingerprint(*root, *name, *seed)}); err != nil {
		return err
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	res.Correct = out.failed == 0 && out.attempted > 0
	if e.tr == nil {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{out.e2e[m.name], m.unit}
		}
	} else {
		// The traced run's end-to-end values sit beside the layers, so the
		// cost of tracing shows against an untraced run of the same seed.
		for _, m := range endToEnd {
			out.layers["traced."+m.name] = out.e2e[m.name]
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
		if err := e.tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))); err != nil {
			return err
		}
	}
	return printJSON(res)
}

// clientCount is the number of closed-loop clients: two, but never more
// than the host's processors.
func clientCount(nproc int) int {
	return min(2, max(1, nproc))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports. An
// operation is a cell on fig4-sweep and a request the server simulated on
// serve-cold.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"maccess_per_s", "M/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p80", "ms"},
	{"peak_rss_mb", "MB"},
}

// profLayers are the layers a CPU sample's leaf frame folds to.
var profLayers = []string{
	"npb", "core", "machine", "tlb", "pagetable", "cache", "omp", "shmem",
	"simsrv", "memo", "diskcache", "http", "json", "syscall",
	"gc", "runtime_sched", "runtime", "other",
}

// perLayer lists the metrics a traced run reports, every workload all of
// them; a layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"npb.setup_ms", "ms"}, {"npb.run_ms", "ms"}, {"npb.verify_ms", "ms"},
		{"core.newsystem_ms", "ms"}, {"core.seal_ms", "ms"}, {"core.newrt_ms", "ms"},
		{"machine.accesses", "count"}, {"machine.ns_per_access.4k", "ns"},
		{"machine.ns_per_access.2m", "ns"}, {"machine.smt_switches", "count"},
		{"tlb.dtlb_l1_misses.4k", "count"}, {"tlb.dtlb_l1_misses.2m", "count"},
		{"tlb.walks.4k", "count"}, {"tlb.walks.2m", "count"},
		{"cache.l2_misses", "count"},
		{"omp.regions", "count"}, {"omp.barrier_cyc_pct", "%"},
		{"simsrv.requests", "count"}, {"simsrv.rejected", "count"}, {"simsrv.failed", "count"},
		{"sched.peak_mb", "MB"}, {"sched.budget_waits", "count"},
		{"tmplpool.builds", "count"}, {"tmplpool.bytes", "bytes"},
		{"memo.hits", "count"}, {"memo.misses", "count"}, {"memo.evictions", "count"},
		{"memo.hit_pct", "%"}, {"memo.key_us", "us"},
		{"diskcache.hits", "count"}, {"diskcache.misses", "count"}, {"diskcache.writes", "count"},
		{"diskcache.waits", "count"}, {"diskcache.get_us", "us"},
		{"go.alloc_mb", "MB"},
	}
	for _, l := range profLayers {
		defs = append(defs, metricDef{"prof." + l + ".self_ms", "ms"})
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"traced." + m.name, m.unit})
	}
	return defs
}()

// addProfile turns the timed phase's folded CPU time into per-operation
// self times.
func addProfile(out *outcome, folded map[string]float64) {
	ops := max(1, out.attempted)
	for layer, msTotal := range folded {
		name := "prof." + layer + ".self_ms"
		if !slices.Contains(profLayers, layer) {
			name = "prof.other.self_ms"
		}
		out.layers[name] += msTotal / float64(ops)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
