package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
	"hugeomp/internal/simsrv"
)

// config is one simulated run, in the vocabulary of simd's wire request.
// Fig-4 cells and served requests share it, so one digest file covers both.
type config struct {
	Class   string
	Kernel  string
	Model   string
	Threads int
	Policy  string
	Sharing string
	Barrier string
}

// id is the config's key in the digest file.
func (c config) id() string {
	return fmt.Sprintf("%s/%s/%s/%d/%s/%s/%s",
		c.Class, c.Kernel, c.Model, c.Threads, c.Policy, c.Sharing, c.Barrier)
}

func (c config) request() simsrv.Request {
	return simsrv.Request{
		Kernel: c.Kernel, Class: c.Class, Model: c.Model, Threads: c.Threads,
		Policy: c.Policy, Sharing: c.Sharing, Barrier: c.Barrier,
	}
}

// runConfig maps the config onto npb's run configuration the way simd
// does, so a cold npb.Run of it yields the result simd must serve.
func (c config) runConfig() (npb.RunConfig, error) {
	var rc npb.RunConfig
	class, err := npb.ParseClass(c.Class)
	if err != nil {
		return rc, err
	}
	model, ok := machine.ModelByName(c.Model)
	if !ok {
		return rc, fmt.Errorf("unknown model %q", c.Model)
	}
	policies := map[string]core.PagePolicy{
		"4KB": core.Policy4K, "2MB": core.Policy2M,
		"mixed": core.PolicyMixed, "transparent": core.PolicyTransparent,
	}
	policy, ok := policies[c.Policy]
	if !ok {
		return rc, fmt.Errorf("unknown policy %q", c.Policy)
	}
	sharing := machine.SharePartition
	if c.Sharing == "true-shared" {
		sharing = machine.ShareTrue
	}
	barrier := omp.TreeBarrier
	if c.Barrier == "central" {
		barrier = omp.CentralBarrier
	}
	return npb.RunConfig{
		Model: model, Threads: c.Threads, Policy: policy, Class: class,
		Sharing: sharing, Barrier: barrier,
	}, nil
}

// modelThreads are the (platform, team size) points of the paper's Fig. 4:
// Opteron270 up to its four cores, XeonHT at four cores and eight SMT
// contexts.
var modelThreads = []teamPoint{{"Opteron270", 1}, {"Opteron270", 2}, {"Opteron270", 4}, {"XeonHT", 4}, {"XeonHT", 8}}

// fig4Grid is the 50-cell class-W sweep: every kernel × {4KB, 2MB} × the
// Fig-4 platform points, with the batch harness's run config (partitioned
// sharing, the zero-valued central barrier, default iterations).
func fig4Grid() []config {
	var cells []config
	for _, k := range npb.Names() {
		for _, pol := range []string{"4KB", "2MB"} {
			for _, mt := range modelThreads {
				cells = append(cells, config{Class: "W", Kernel: k, Model: mt.model, Threads: mt.threads,
					Policy: pol, Sharing: "partitioned", Barrier: "central"})
			}
		}
	}
	return cells
}

// coldShapes are serve-cold's (page policy, platform/team size, barrier)
// combinations, 54 of them.
//
// The transparent page policy and true-shared sharing are left out: their
// multi-threaded results differ from one cold run of the same config to the
// next, so no digest can pin them.
func coldShapes() []config {
	var shapes []config
	for _, pol := range []string{"4KB", "2MB", "mixed"} {
		for _, mt := range teamPoints() {
			for _, bar := range []string{"tree", "central"} {
				shapes = append(shapes, config{Class: "T", Model: mt.model, Threads: mt.threads,
					Policy: pol, Sharing: "partitioned", Barrier: bar})
			}
		}
	}
	return shapes
}

// coldSpace is serve-cold's class-T request space: every kernel × shape,
// 270 configs, each at the kernel's default iteration count, as simd's
// clients send them.
func coldSpace() []config {
	var space []config
	for _, k := range npb.Names() {
		for _, sh := range coldShapes() {
			sh.Kernel = k
			space = append(space, sh)
		}
	}
	return space
}

type teamPoint struct {
	model   string
	threads int
}

// teamPoints is every team size of both paper platforms, except XeonHT at
// five to seven threads: there the partitioned SMT cache split panics
// ("lines not divisible by ways"), which simd answers with a 500.
func teamPoints() []teamPoint {
	return []teamPoint{{"Opteron270", 1}, {"Opteron270", 2}, {"Opteron270", 3}, {"Opteron270", 4},
		{"XeonHT", 1}, {"XeonHT", 2}, {"XeonHT", 3}, {"XeonHT", 4}, {"XeonHT", 8}}
}

// newRand returns the benchmark's deterministic generator for one stream;
// stream separates independent uses of the same seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shuffled returns a seeded permutation of cells.
func shuffled(cells []config, r *rand.Rand) []config {
	out := append([]config(nil), cells...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// repeatEvery makes every fourth serve-cold request repeat an earlier
// config of its epoch, so the memo answers a quarter of them.
const repeatEvery = 4

// stream hands out serve-cold's seeded request sequence to concurrent
// clients, one epoch at a time. An epoch sends every config of coldSpace
// once: first coldOpening, then the others in seeded order. Every
// repeatEvery-th request instead repeats a uniformly chosen config sent
// earlier in the same epoch. The sequence depends only on the seed; which
// client sends which request does not affect it.
type stream struct {
	mu    sync.Mutex
	r     *rand.Rand
	fresh []config // the epoch's configs not sent yet
	sent  []config // the epoch's configs sent so far
	n     int      // requests taken in the epoch
}

// coldStream returns the stream of a seed, at the start of its first epoch.
//
// The opening fixes which config builds each warm template (kernel × page
// policy) whatever the seed: which config builds a template moves the
// server's later throughput by up to a fifth.
func coldStream(seed uint64) *stream {
	s := &stream{r: newRand(seed, 2)}
	s.nextEpoch()
	return s
}

// nextEpoch starts the next epoch.
func (s *stream) nextEpoch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	opening := coldOpening()
	first := map[string]bool{}
	for _, c := range opening {
		first[c.id()] = true
	}
	var rest []config
	for _, c := range coldSpace() {
		if !first[c.id()] {
			rest = append(rest, c)
		}
	}
	s.fresh = append(opening, shuffled(rest, s.r)...)
	s.sent, s.n = nil, 0
}

// take returns the epoch's next request, or false once every config of the
// epoch was sent.
func (s *stream) take() (config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fresh) == 0 {
		return config{}, false
	}
	s.n++
	if s.n%repeatEvery == 0 {
		return s.sent[s.r.IntN(len(s.sent))], true
	}
	c := s.fresh[0]
	s.fresh = s.fresh[1:]
	s.sent = append(s.sent, c)
	return c, true
}

// coldOpening is serve-cold's first request for each warm-template key:
// kernel × page policy, on one Opteron270 thread.
func coldOpening() []config {
	var out []config
	for _, k := range npb.Names() {
		for _, sh := range coldShapes() {
			if sh.Model == "Opteron270" && sh.Threads == 1 && sh.Barrier == "tree" {
				sh.Kernel = k
				out = append(out, sh)
			}
		}
	}
	return out
}
