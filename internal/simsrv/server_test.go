package simsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hugeomp/internal/core"
	"hugeomp/internal/machine"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Error("Close never returned: a session leaked its admission charge")
		}
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeResponse(t *testing.T, body []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decode response: %v\n%s", err, body)
	}
	return r
}

func errKind(t *testing.T, body []byte) errorKind {
	t.Helper()
	var e map[string]ErrorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error body: %v\n%s", err, body)
	}
	return e["error"].Kind
}

var baseReq = Request{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 2, Policy: "2MB"}

// TestServerMemoizedRetry: an identical retry is answered from the memo with
// a byte-identical result — the idempotency contract.
func TestServerMemoizedRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, body1 := postRun(t, ts, baseReq)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, body1)
	}
	r1 := decodeResponse(t, body1)
	if r1.Cached {
		t.Error("first run reported cached")
	}
	resp2, body2 := postRun(t, ts, baseReq)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry: %d %s", resp2.StatusCode, body2)
	}
	r2 := decodeResponse(t, body2)
	if !r2.Cached {
		t.Error("retry not answered from the memo")
	}
	if r1.Key != r2.Key || !reflect.DeepEqual(r1.Result, r2.Result) {
		t.Errorf("retry result differs:\nfirst: %+v\nretry: %+v", r1, r2)
	}
	// A different deadline must not change the content key.
	req3 := baseReq
	req3.DeadlineMS = 55_000
	_, body3 := postRun(t, ts, req3)
	if r3 := decodeResponse(t, body3); r3.Key != r1.Key {
		t.Errorf("deadline changed the content key: %s vs %s", r3.Key, r1.Key)
	}
}

// TestServerSingleFlight: concurrent identical requests collapse onto one
// simulation; everyone gets the same bytes.
func TestServerSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 8
	results := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postRun(t, ts, baseReq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeResponse(t, body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0].Result, results[i].Result) {
			t.Fatalf("request %d result differs from request 0", i)
		}
	}
	if misses := s.Counters().MemoMisses; misses != 1 {
		t.Errorf("%d simulations ran for %d identical requests, want 1", misses, n)
	}
}

// TestServerDeadlineAborts: a request whose budget expires mid-run is
// answered 504 with the typed aborted kind, and the worker it held is free
// for the next request.
func TestServerDeadlineAborts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})

	// Prime the warm template with a generous budget (template construction
	// is uncancellable and would eat a tiny budget before the first
	// checkpoint could).
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	slow := baseReq
	slow.Iterations = 500 // long enough that a 1ms budget dies mid-run
	slow.DeadlineMS = 1
	resp, body := postRun(t, ts, slow)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: %d %s, want 504", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindAborted {
		t.Errorf("kind = %s, want %s", k, kindAborted)
	}
	if got := s.Counters().Aborted; got == 0 {
		t.Error("aborted counter not bumped")
	}

	// The single worker must be free again: a fresh (uncached) run succeeds.
	next := baseReq
	next.Threads = 1
	if resp, body := postRun(t, ts, next); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after abort: %d %s", resp.StatusCode, body)
	}

	// An identical request with a live budget must not inherit the aborted
	// flight's error: errors are never memoized.
	slow.DeadlineMS = 60_000
	if resp, body := postRun(t, ts, slow); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry of aborted config: %d %s", resp.StatusCode, body)
	}
}

// TestServerPanicQuarantine: an injected panic yields a typed 500 for that
// request only; the server keeps serving, and a later run forked from the
// same template matches a cold run bit-for-bit — the panic died with its
// fork, not with the snapshot.
func TestServerPanicQuarantine(t *testing.T) {
	s, ts := newTestServer(t, Config{AllowInject: true})

	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	boom := baseReq
	boom.Inject = "panic"
	resp, body := postRun(t, ts, boom)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: %d %s, want 500", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindPanic {
		t.Errorf("kind = %s, want %s", k, kindPanic)
	}
	ctr := s.Counters()
	if ctr.Panicked != 1 {
		t.Errorf("panicked = %d, want 1", ctr.Panicked)
	}
	if ctr.Quarantined != 0 {
		t.Errorf("quarantined = %d, want 0 (the snapshot was not poisoned)", ctr.Quarantined)
	}
	if ctr.PoolPanics != 0 {
		t.Errorf("pool backstop caught %d panics; the session boundary must recover first", ctr.PoolPanics)
	}

	// Post-panic sibling fork vs a cold run of the same config: threads=4
	// forces a fresh simulation (new content key) from the surviving
	// template.
	after := baseReq
	after.Threads = 4
	respA, bodyA := postRun(t, ts, after)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("run after panic: %d %s", respA.StatusCode, bodyA)
	}
	got := decodeResponse(t, bodyA).Result

	k, err := npb.New("CG")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := npb.Run(k, npb.RunConfig{
		Model: machine.Opteron270(), Threads: 4, Policy: core.Policy2M, Class: npb.ClassT,
		Sharing: machine.SharePartition, Barrier: omp.TreeBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare through the same JSON round-trip the service performs.
	cb, _ := json.Marshal(cold)
	var coldRT npb.Result
	if err := json.Unmarshal(cb, &coldRT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRT, got) {
		t.Errorf("post-panic sibling differs from cold run:\ncold: %+v\ngot:  %+v", coldRT, got)
	}
}

// TestServerAdmissionRefuses: with the only slot busy and the admission
// queue full, /run answers 429 with a Retry-After instead of queueing, and
// recovers once capacity returns.
func TestServerAdmissionRefuses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	block := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(block) }) })
	est := npb.ForkBytes(npb.ClassT)
	hold := func() {
		_, _ = s.dispatch(context.Background(), est, func() (npb.Result, error) {
			<-block
			return npb.Result{}, nil
		})
	}
	// Saturate through the controller: one session running, one queued.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); hold() }()
	waitRunning(t, s.adm, 1)
	go func() { defer wg.Done(); hold() }()
	waitQueued(t, s.adm, 1)

	resp, body := postRun(t, ts, baseReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if k := errKind(t, body); k != kindSaturated {
		t.Errorf("kind = %s, want %s", k, kindSaturated)
	}
	if got := s.Counters().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	once.Do(func() { close(block) })
	wg.Wait()
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after capacity returned: %d %s", resp.StatusCode, body)
	}
}

// TestServerDrain: a draining server refuses new work with 503 + Retry-After
// and reports draining on /healthz.
func TestServerDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Drain()
	resp, body := postRun(t, ts, baseReq)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if k := errKind(t, body); k != kindDraining {
		t.Errorf("kind = %s, want %s", k, kindDraining)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", h.StatusCode)
	}
}

// TestServerRejectsBadRequests: malformed, unknown-field, oversized, and
// disabled-injection requests all get typed 4xx answers.
func TestServerRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad kernel", `{"kernel":"LU","class":"T","model":"Opteron270","threads":1,"policy":"4KB"}`, 400},
		{"bad model", `{"kernel":"CG","class":"T","model":"EPYC","threads":1,"policy":"4KB"}`, 400},
		{"bad policy", `{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"1GB"}`, 400},
		{"too many threads", `{"kernel":"CG","class":"T","model":"Opteron270","threads":64,"policy":"4KB"}`, 400},
		{"unknown field", `{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"4KB","fault":"x"}`, 400},
		{"not json", `kernel=CG`, 400},
		{"oversized", `{"kernel":"CG","junk":"` + strings.Repeat("x", 4096) + `"}`, 413},
		{"inject disabled", `{"kernel":"CG","class":"T","model":"Opteron270","threads":1,"policy":"4KB","inject":"panic"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
	if got := s.Counters().Invalid; got != uint64(len(cases)) {
		t.Errorf("invalid = %d, want %d", got, len(cases))
	}
}

// TestServerRejectsInvalidGeometry: a thread count whose partitioned shares
// leave a cache with no valid geometry (XeonHT at 5–7 threads splits a 2 MB
// L2 three ways) is a 400 at compile time — no template is built and no
// session panics.
func TestServerRejectsInvalidGeometry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for threads := 5; threads <= 7; threads++ {
		req := Request{Kernel: "CG", Class: "T", Model: "XeonHT", Threads: threads, Policy: "4KB"}
		resp, body := postRun(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("XeonHT/%d threads: %d %s, want 400", threads, resp.StatusCode, body)
		}
		if k := errKind(t, body); k != kindInvalid {
			t.Errorf("kind = %s, want %s", k, kindInvalid)
		}
	}
	ctr, g := s.Counters(), s.Gauges()
	if ctr.Invalid != 3 || ctr.Panicked != 0 || ctr.Requests != 0 {
		t.Errorf("counters after invalid geometry: %+v", ctr)
	}
	if g.TemplateBuilds != 0 {
		t.Errorf("invalid geometry built %d templates", g.TemplateBuilds)
	}
	// The same threads under true sharing have valid geometry.
	ok := Request{Kernel: "CG", Class: "T", Model: "XeonHT", Threads: 5, Policy: "4KB", Sharing: "true-shared"}
	if resp, body := postRun(t, ts, ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("XeonHT/5 true-shared: %d %s", resp.StatusCode, body)
	}
}

// TestServerSmoke is the CI race-mode smoke: a handful of mixed requests
// against a live server, then clean drain. Kept fast deliberately.
func TestServerSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 4, MemoCapacity: 8})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := baseReq
			req.Threads = 1 + i%2
			resp, body := postRun(t, ts, req)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("smoke %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		Counters Counters `json:"counters"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Completed+stats.Counters.Rejected == 0 {
		t.Error("smoke produced no outcomes")
	}
	if stats.Counters.PoolPanics != 0 {
		t.Errorf("pool panics = %d", stats.Counters.PoolPanics)
	}
}

// TestBudgetCap: the server cap binds client budgets.
func TestBudgetCap(t *testing.T) {
	s, err := NewServer(Config{MaxDeadline: time.Second, DefaultDeadline: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := s.budget(&Request{}); d != 500*time.Millisecond {
		t.Errorf("default budget = %s", d)
	}
	if d := s.budget(&Request{DeadlineMS: 100}); d != 100*time.Millisecond {
		t.Errorf("explicit budget = %s", d)
	}
	if d := s.budget(&Request{DeadlineMS: 60_000}); d != time.Second {
		t.Errorf("capped budget = %s, want 1s", d)
	}
}

// TestTemplateReuse: requests differing only in fork-free fields share one
// warm template.
func TestTemplateReuse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, req := range []Request{
		baseReq,
		{Kernel: "CG", Class: "T", Model: "XeonHT", Threads: 4, Policy: "2MB", Sharing: "true-shared", Barrier: "central"},
		{Kernel: "CG", Class: "T", Model: "Opteron270", Threads: 1, Policy: "2MB", Iterations: 3},
	} {
		if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: %d %s", req, resp.StatusCode, body)
		}
	}
	n, _, _, builds := s.tmpls.snapshot()
	if n != 1 {
		t.Errorf("%d templates for fork-free variations, want 1", n)
	}
	if builds != 1 {
		t.Errorf("%d template builds for fork-free variations, want 1", builds)
	}
}
