package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
	"hugeomp/internal/units"
)

// warmupCell is run cold during fig4-sweep's set-up, so the timed phase
// does not pay the process's first-use costs.
var warmupCell = config{Class: "T", Kernel: "CG", Model: "Opteron270", Threads: 4,
	Policy: "4KB", Sharing: "partitioned", Barrier: "tree"}

// classWShared mirrors npb's class-W shared-region size, which npb.RunOn
// uses for SharedBytes (and four times it for PhysBytes). The traced replay
// needs it; if it drifts, the replayed results fail their digests.
const classWShared = 64 * units.MB

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fig4Sweep runs the 50-cell class-W grid cold, one cell at a time, in a
// seeded order, for whole passes: at least one, and another while it is
// expected to end nearer the run's seconds than stopping would. Set-up runs
// the warm-up cell.
func fig4Sweep(e *env) (*outcome, error) {
	out := newOutcome()
	var warm npb.Result
	if err := setUp(out, func() (discard func(), err error) {
		warm, err = coldResult(warmupCell)
		return nil, err
	}); err != nil {
		return nil, err
	}
	if err := e.dig.check(warmupCell, warm); err != nil {
		return nil, err
	}

	grid := fig4Grid()
	order := newRand(e.seed, 1)
	var (
		lat      []float64
		accesses uint64
		sims     = newSimCounts()
		first    = map[string]float64{} // simulated seconds of the first pass
		mem0     runtime.MemStats
	)
	if e.tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	e.prof.resume()
	start := time.Now()
	var lastPass time.Duration
	for pass := 0; pass == 0 || time.Since(start)+lastPass/2 < e.seconds; pass++ {
		p0 := time.Now()
		for i, c := range shuffled(grid, order) {
			t0 := time.Now()
			res, runDur, err := runCell(e, int64(pass*len(grid)+i+1), c)
			lat = append(lat, ms(time.Since(t0))) // failed cells count too
			out.attempted++
			if err == nil {
				asClient(func() { err = e.dig.check(c, res) })
			}
			if err != nil {
				out.failed++
				fmt.Fprintln(os.Stderr, "perfbench: cell failed:", err)
				continue
			}
			accesses += res.Counters.Accesses()
			sims.add(c, res, runDur)
			if pass == 0 {
				first[c.id()] = res.Seconds
			}
		}
		lastPass = time.Since(p0)
	}
	elapsed := time.Since(start).Seconds()
	if err := e.prof.pause(); err != nil {
		return nil, err
	}
	if err := setLatency(out, lat, elapsed, accesses); err != nil {
		return nil, err
	}
	printAccuracy(first)

	if e.tr != nil {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		out.layers["go.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(units.MB) / float64(out.attempted)
		for name, span := range map[string]string{
			"npb.setup_ms": "npb.Setup", "npb.run_ms": "npb.Run", "npb.verify_ms": "npb.Verify",
			"core.newsystem_ms": "core.NewSystem", "core.seal_ms": "core.Seal", "core.newrt_ms": "core.NewRT",
		} {
			d, n := e.tr.total(span)
			out.layers[name] = ms(d) / float64(max(1, n))
		}
		sims.into(out.layers)
	}
	return out, nil
}

// setLatency fills the end-to-end metrics shared by every workload from
// per-operation latencies (ms), the timed phase's length (s), the count of
// answered operations, and the simulated accesses they delivered.
func setLatency(out *outcome, lat []float64, elapsed float64, accesses uint64) error {
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return err
	}
	p80, err := percentile(lat, 0.8)
	if err != nil {
		return err
	}
	out.e2e["op_ms_p50"] = p50
	out.e2e["op_ms_p80"] = p80
	out.e2e["ops_per_s"] = float64(out.attempted-out.failed) / elapsed
	out.e2e["maccess_per_s"] = float64(accesses) / 1e6 / elapsed
	return nil
}

// runCell runs one cell cold: through npb.Run untraced, or traced by
// replaying npb.RunOn's steps with a span around each public call. It also
// returns the duration of the kernel's Run step (traced runs only).
func runCell(e *env, op int64, c config) (npb.Result, time.Duration, error) {
	k, err := npb.New(c.Kernel)
	if err != nil {
		return npb.Result{}, 0, err
	}
	rc, err := c.runConfig()
	if err != nil {
		return npb.Result{}, 0, err
	}
	if e.tr == nil {
		res, err := npb.Run(k, rc)
		return res, 0, err
	}
	root, endCell := e.tr.begin(op, 0, "cell")
	defer endCell()
	step := func(name string, f func() error) (time.Duration, error) {
		_, end := e.tr.begin(op, root, name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		end()
		return d, err
	}
	var sys *core.System
	if _, err := step("core.NewSystem", func() (err error) {
		sys, err = core.NewSystem(core.Config{
			Model: rc.Model, Policy: rc.Policy, Sharing: rc.Sharing, Barrier: rc.Barrier,
			SharedBytes: classWShared, PhysBytes: 4 * classWShared, HugePages: rc.HugePages,
		})
		return err
	}); err != nil {
		return npb.Result{}, 0, err
	}
	if _, err := step("npb.Setup", func() error { return k.Setup(sys, rc.Class) }); err != nil {
		return npb.Result{}, 0, err
	}
	step("core.Seal", func() error { sys.Seal(); return nil })
	var rt *omp.RT
	if _, err := step("core.NewRT", func() (err error) { rt, err = sys.NewRT(rc.Threads); return err }); err != nil {
		return npb.Result{}, 0, err
	}
	runDur, err := step("npb.Run", func() error { return k.Run(rt, k.DefaultIterations(rc.Class)) })
	if err != nil {
		return npb.Result{}, 0, err
	}
	if _, err := step("npb.Verify", k.Verify); err != nil {
		return npb.Result{}, 0, err
	}
	return npb.Result{
		Kernel: k.Name(), Class: rc.Class, Model: rc.Model.Name, Threads: rc.Threads, Policy: rc.Policy,
		Cycles: rt.WallCycles(), Seconds: rt.Seconds(), Counters: rt.TotalCounters(),
		Regions:  rt.RegionProfiles(),
		DataMB:   float64(sys.DataFootprint()) / float64(units.MB),
		InstrMB:  float64(sys.InstrFootprint()) / float64(units.MB),
		Degraded: sys.Degraded, OS: sys.OSCounters(),
	}, runDur, nil
}

// simCounts accumulates the simulated statistics of computed results, for
// the machine, tlb, cache and omp layers. Counts are reported per computed
// result, and per-policy counts per result of that policy.
type simCounts struct {
	n                                         int
	accesses, smt, l2, regions, barrier, busy uint64
	perPolicy                                 map[string]*policyCounts
}

type policyCounts struct {
	n                int
	dtlb, walks, acc uint64
	runTime          time.Duration
}

func newSimCounts() *simCounts {
	return &simCounts{perPolicy: map[string]*policyCounts{"4KB": {}, "2MB": {}}}
}

func (s *simCounts) add(c config, res npb.Result, runDur time.Duration) {
	s.n++
	ctr := res.Counters
	s.accesses += ctr.Accesses()
	s.smt += ctr.SMTSwitches
	s.l2 += ctr.L2Misses
	s.barrier += ctr.BarrierCyc
	s.busy += ctr.Busy
	for _, r := range res.Regions {
		s.regions += r.Entries
	}
	if p, ok := s.perPolicy[c.Policy]; ok {
		p.n++
		p.dtlb += ctr.DTLBL1Misses()
		p.walks += ctr.DTLBWalks()
		p.acc += ctr.Accesses()
		p.runTime += runDur
	}
}

func (s *simCounts) into(layers map[string]float64) {
	if s.n == 0 {
		return
	}
	n := float64(s.n)
	layers["machine.accesses"] = float64(s.accesses) / n
	layers["machine.smt_switches"] = float64(s.smt) / n
	layers["cache.l2_misses"] = float64(s.l2) / n
	layers["omp.regions"] = float64(s.regions) / n
	if s.busy > 0 {
		layers["omp.barrier_cyc_pct"] = 100 * float64(s.barrier) / float64(s.busy)
	}
	for pol, suffix := range map[string]string{"4KB": ".4k", "2MB": ".2m"} {
		p := s.perPolicy[pol]
		if p.n == 0 {
			continue
		}
		layers["tlb.dtlb_l1_misses"+suffix] = float64(p.dtlb) / float64(p.n)
		layers["tlb.walks"+suffix] = float64(p.walks) / float64(p.n)
		if p.acc > 0 {
			layers["machine.ns_per_access"+suffix] = float64(p.runTime.Nanoseconds()) / float64(p.acc)
		}
	}
}

// paperGain is the paper's 4 KB→2 MB improvement at four Opteron threads
// (class B), as EXPERIMENTS.md records it.
var paperGain = map[string]string{"CG": "~25%", "SP": "~20%", "MG": "~17%", "BT": "~0", "FT": "~0"}

// printAccuracy prints the simulated Fig-4 effects of the first pass beside
// the paper's values. They are exact and gated by the digests; the lines
// are for reading, not for comparison between commits.
func printAccuracy(first map[string]float64) {
	secs := func(kernel, model string, threads int, policy string) float64 {
		return first[config{Class: "W", Kernel: kernel, Model: model, Threads: threads,
			Policy: policy, Sharing: "partitioned", Barrier: "central"}.id()]
	}
	fmt.Println("model accuracy: simulated class W beside the paper's class B")
	for _, k := range npb.Names() {
		t4, t2 := secs(k, "Opteron270", 4, "4KB"), secs(k, "Opteron270", 4, "2MB")
		x4, x8 := secs(k, "XeonHT", 4, "2MB"), secs(k, "XeonHT", 8, "2MB")
		if t4 == 0 || x4 == 0 {
			continue
		}
		fmt.Printf("  %s  2MB gain at Opteron270/4thr: %5.1f%% (paper %s)   XeonHT/2MB 4->8thr time: %+5.1f%% (paper: slower at 8)\n",
			k, 100*(t4-t2)/t4, paperGain[k], 100*(x8-x4)/x4)
	}
}
