package simsrv

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"hugeomp/internal/npb"
	"hugeomp/internal/units"
)

// TestTmplPoolEviction: settling templates past the byte budget evicts the
// least recently used, never the one just settled — a budget smaller than one
// template degrades to a single-resident pool.
func TestTmplPoolEviction(t *testing.T) {
	p := newTmplPool(250)
	keys := []tmplKey{{Kernel: "CG"}, {Kernel: "MG"}, {Kernel: "SP"}}
	for _, k := range keys {
		e := p.get(k)
		e.bytes = 100
		p.settle(k, e)
	}
	// 3×100 > 250: the LRU (CG) must be gone, MG and SP resident.
	if p.lookup(keys[0]) != nil {
		t.Error("LRU entry survived past the budget")
	}
	residents, bytes, evictions, builds := p.snapshot()
	if residents != 2 || bytes != 200 || evictions != 1 || builds != 3 {
		t.Fatalf("snapshot = %d residents, %d bytes, %d evictions, %d builds",
			residents, bytes, evictions, builds)
	}
	// Touch MG, settle a new entry: SP (now LRU) is the victim.
	p.get(keys[1])
	e := p.get(tmplKey{Kernel: "FT"})
	e.bytes = 100
	p.settle(tmplKey{Kernel: "FT"}, e)
	if p.lookup(keys[2]) != nil {
		t.Error("recency not honored: SP should have been evicted")
	}
	if p.lookup(keys[1]) == nil {
		t.Error("touched entry was evicted")
	}
	// An entry bigger than the whole budget still resides alone.
	tiny := newTmplPool(10)
	big := tiny.get(keys[0])
	big.bytes = 1000
	tiny.settle(keys[0], big)
	if tiny.lookup(keys[0]) == nil {
		t.Error("oversized template not resident in its own pool")
	}
}

// TestServerTemplateBudget: a server whose template budget fits one template
// serves distinct kernels correctly while cycling the pool, and reports the
// evictions in its gauges.
func TestServerTemplateBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{TemplateBudget: npb.TemplateBytes(npb.ClassT)})
	for _, kernel := range []string{"CG", "MG", "CG"} {
		req := baseReq
		req.Kernel = kernel
		if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", kernel, resp.StatusCode, body)
		}
	}
	g := s.Gauges()
	if g.TemplateResidents != 1 {
		t.Errorf("residents = %d, want 1 under a one-template budget", g.TemplateResidents)
	}
	if g.TemplateEvictions == 0 {
		t.Error("no evictions under a one-template budget across two kernels")
	}
	if g.TemplateBuilds < 2 {
		t.Errorf("builds = %d, want >= 2", g.TemplateBuilds)
	}
}

// TestServerMemBudget: sessions run under a footprint budget sized for one
// fork at a time; concurrent distinct requests all complete and the waits
// show up in the gauges.
func TestServerMemBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{MemBudget: npb.ForkBytes(npb.ClassT), Queue: 8})
	reqs := []Request{
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 1, Policy: "4KB"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 1, Policy: "2MB"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 2, Policy: "4KB"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 2, Policy: "2MB"},
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
				t.Errorf("%+v: %d %s", req, resp.StatusCode, body)
			}
		}(reqs[i])
	}
	wg.Wait()
	g := s.Gauges()
	if g.SchedChargedBytes != 0 || g.SchedRunning != 0 {
		t.Errorf("charges leaked: %d bytes, %d running", g.SchedChargedBytes, g.SchedRunning)
	}
	if g.SchedPeakBytes > npb.ForkBytes(npb.ClassT) {
		t.Errorf("peak %d exceeded the one-fork budget %d",
			g.SchedPeakBytes, npb.ForkBytes(npb.ClassT))
	}
}

// TestStatsGauges: GET /stats exposes the scheduler, template-pool and
// disk-cache gauges with the configured budgets.
func TestStatsGauges(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		CacheDir:       dir,
		MemBudget:      512 * units.MB,
		TemplateBudget: 2 * units.GB,
	})
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Counters Counters `json:"counters"`
		Gauges   Gauges   `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	g := stats.Gauges
	if g.SchedBudgetBytes != 512*units.MB || g.TemplateBudgetBytes != 2*units.GB {
		t.Errorf("budgets not reported: sched %d, template %d", g.SchedBudgetBytes, g.TemplateBudgetBytes)
	}
	if g.TemplateResidents != 1 || g.TemplateBytes != npb.TemplateBytes(npb.ClassT) {
		t.Errorf("template gauges: %d residents, %d bytes", g.TemplateResidents, g.TemplateBytes)
	}
	if g.SchedPeakBytes != npb.ForkBytes(npb.ClassT) {
		t.Errorf("peak charged = %d, want one fork (%d)", g.SchedPeakBytes, npb.ForkBytes(npb.ClassT))
	}
	if !g.DiskEnabled || g.DiskMisses != 1 || g.DiskWrites != 1 {
		t.Errorf("disk gauges after one cold run: %+v", g)
	}
	if in := s.Gauges(); in != g {
		t.Errorf("in-process gauges differ from /stats: %+v vs %+v", in, g)
	}
}

// TestServerWarmRestartFromDisk: a second server on the same cache directory
// — a restart, or another process — answers a previously computed request as
// a cache hit without running a simulation.
func TestServerWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	_, body1 := postRun(t, ts1, baseReq)
	r1 := decodeResponse(t, body1)
	if r1.Cached {
		t.Fatal("first-ever run reported cached")
	}

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	resp, body2 := postRun(t, ts2, baseReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart run: %d %s", resp.StatusCode, body2)
	}
	r2 := decodeResponse(t, body2)
	if !r2.Cached {
		t.Error("warm-restart run not served as a cache hit")
	}
	if r2.Key != r1.Key || !reflect.DeepEqual(r2.Result, r1.Result) {
		t.Errorf("disk round trip changed the result:\nfirst:   %+v\nrestart: %+v", r1, r2)
	}
	ctr := s2.Counters()
	if ctr.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", ctr.CacheHits)
	}
	g := s2.Gauges()
	if g.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1 (%+v)", g.DiskHits, g)
	}
	if g.TemplateBuilds != 0 {
		t.Errorf("warm restart built %d templates for a cached answer", g.TemplateBuilds)
	}
}
