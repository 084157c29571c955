package simsrv

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

// waitQueued polls until a has n waiters.
func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if q, _, _, _ := a.snapshot(); q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission queue never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitRunning polls until a has n admitted sessions.
func waitRunning(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, r, _, _ := a.snapshot(); r == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never reached %d running sessions", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertIdle fails unless a holds no waiter, no session and no bytes.
func assertIdle(t *testing.T, a *admission) {
	t.Helper()
	if q, r, c, _ := a.snapshot(); q != 0 || r != 0 || c != 0 {
		t.Fatalf("charge leaked: queued %d, running %d, charged %d", q, r, c)
	}
}

// TestSchedPacking: the controller admits sessions up to the byte budget,
// queues the overflow FIFO, and admits waiters as charges release.
func TestSchedPacking(t *testing.T) {
	a := newAdmission(8, 4, 100)
	ctx := context.Background()
	if err := a.acquire(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx, 40); err != nil {
		t.Fatal(err)
	}
	// 100/100 charged: the next session must wait.
	admitted := make(chan error, 1)
	go func() { admitted <- a.acquire(ctx, 50) }()
	select {
	case err := <-admitted:
		t.Fatalf("over-budget acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if q, r, c, _ := a.snapshot(); q != 1 || r != 2 || c != 100 {
		t.Fatalf("snapshot = queued %d, running %d, charged %d", q, r, c)
	}
	a.release(60)
	if err := <-admitted; err != nil {
		t.Fatalf("waiter not admitted after release: %v", err)
	}
	if q, r, c, _ := a.snapshot(); q != 0 || r != 2 || c != 90 {
		t.Fatalf("after release: queued %d, running %d, charged %d", q, r, c)
	}
	if a.waits.Load() != 1 {
		t.Errorf("waits = %d, want 1", a.waits.Load())
	}
}

// TestSchedFIFONoOvertake: a small request that would fit the budget still
// queues behind a large waiter, and both are admitted in order once room
// returns — no class starves behind a stream of smaller ones.
func TestSchedFIFONoOvertake(t *testing.T) {
	a := newAdmission(8, 4, 100)
	ctx := context.Background()
	if err := a.acquire(ctx, 60); err != nil {
		t.Fatal(err)
	}
	order := make(chan int64, 2)
	go func() { _ = a.acquire(ctx, 50); order <- 50 }()
	waitQueued(t, a, 1)
	go func() { _ = a.acquire(ctx, 30); order <- 30 }() // 60+30 fits, but must not overtake
	waitQueued(t, a, 2)
	if _, r, c, _ := a.snapshot(); r != 1 || c != 60 {
		t.Fatalf("small request overtook the queue: running %d, charged %d", r, c)
	}
	a.release(60)
	<-order
	<-order
	if q, r, c, _ := a.snapshot(); q != 0 || r != 2 || c != 80 {
		t.Fatalf("after release: queued %d, running %d, charged %d", q, r, c)
	}
}

// TestSchedIdleOverride: a request larger than the whole budget is admitted
// when nothing is charged — the budget bounds packing, it must not make a
// class unservable.
func TestSchedIdleOverride(t *testing.T) {
	a := newAdmission(1, 4, 100)
	if err := a.acquire(context.Background(), 1000); err != nil {
		t.Fatalf("idle oversized acquire: %v", err)
	}
	a.release(1000)
	assertIdle(t, a)
}

// TestSchedSlotLimit: with no byte budget, the worker slots are the limit:
// the session past them waits and is admitted when a slot frees.
func TestSchedSlotLimit(t *testing.T) {
	a := newAdmission(1, 4, 0)
	ctx := context.Background()
	if err := a.acquire(ctx, 10); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- a.acquire(ctx, 10) }()
	waitQueued(t, a, 1)
	if _, r, c, _ := a.snapshot(); r != 1 || c != 10 {
		t.Fatalf("second session ran past the only slot: running %d, charged %d", r, c)
	}
	a.release(10)
	if err := <-admitted; err != nil {
		t.Fatalf("waiter not admitted after the slot freed: %v", err)
	}
	if a.waits.Load() != 1 {
		t.Errorf("waits = %d, want 1 (a slot wait counts)", a.waits.Load())
	}
	a.release(10)
	assertIdle(t, a)
}

// TestSchedSaturationAndAbort: a full waiter queue refuses with ErrSaturated;
// a waiter whose context dies leaves with an omp.ErrAborted-wrapping error
// and no leaked charge; a request whose deadline is already spent is
// refused even by an idle controller.
func TestSchedSaturationAndAbort(t *testing.T) {
	a := newAdmission(8, 1, 100)
	ctx := context.Background()
	if err := a.acquire(ctx, 100); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	waiter := make(chan error, 1)
	go func() { waiter <- a.acquire(dead, 10) }()
	waitQueued(t, a, 1)
	if err := a.acquire(ctx, 10); !errors.Is(err, ErrSaturated) {
		t.Fatalf("full queue acquire = %v, want ErrSaturated", err)
	}
	cancel()
	if err := <-waiter; !errors.Is(err, omp.ErrAborted) {
		t.Fatalf("aborted waiter = %v, want omp.ErrAborted", err)
	}
	a.release(100)
	assertIdle(t, a)
	if err := a.acquire(dead, 10); !errors.Is(err, omp.ErrAborted) {
		t.Fatalf("acquire on a spent deadline = %v, want omp.ErrAborted", err)
	}
	assertIdle(t, a)
}

// TestAdmissionRunsEverything: a stream of sessions, retried on 429-style
// refusal, all run, never more than the slot count at once.
func TestAdmissionRunsEverything(t *testing.T) {
	const slots = 4
	a := newAdmission(slots, 8, 0)
	var ran, live, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := a.acquire(context.Background(), 1)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrSaturated) {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond) // backpressure: retry later
			}
			n := live.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			live.Add(-1)
			ran.Add(1)
			a.release(1)
		}()
	}
	wg.Wait()
	if ran.Load() != 50 {
		t.Errorf("ran %d sessions, want 50", ran.Load())
	}
	if peak.Load() > slots {
		t.Errorf("%d sessions ran at once on %d slots", peak.Load(), slots)
	}
	assertIdle(t, a)
}

// TestAdmissionRefusesWithoutBlocking: with every slot busy and the queue
// full, acquire refuses at once instead of blocking.
func TestAdmissionRefusesWithoutBlocking(t *testing.T) {
	a := newAdmission(1, 1, 0)
	ctx := context.Background()
	if err := a.acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx, 1) }()
	waitQueued(t, a, 1)
	refused := make(chan error, 1)
	go func() { refused <- a.acquire(ctx, 1) }()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("saturated acquire = %v, want ErrSaturated", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("saturated acquire blocked")
	}
	a.release(1)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	a.release(1)
	assertIdle(t, a)
}

// TestAdmissionCloseDrainsAndRefuses: close refuses new sessions with
// ErrDraining at once, but returns only after every admitted session —
// including one queued before the close — has finished. Idempotent.
func TestAdmissionCloseDrainsAndRefuses(t *testing.T) {
	a := newAdmission(2, 8, 0)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := a.acquire(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	finish := make(chan struct{})
	var queuedRan atomic.Bool
	go func() {
		if err := a.acquire(ctx, 1); err != nil {
			t.Error(err)
			return
		}
		<-finish
		queuedRan.Store(true)
		a.release(1)
	}()
	waitQueued(t, a, 1)

	closed := make(chan struct{})
	go func() { a.close(); close(closed) }()
	for {
		a.mu.Lock()
		closing := a.closed
		a.mu.Unlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire while closing = %v, want ErrDraining", err)
	}
	a.release(1)
	a.release(1)
	select {
	case <-closed:
		t.Fatal("close returned while a queued session was still to run")
	case <-time.After(20 * time.Millisecond):
	}
	close(finish)
	<-closed
	if !queuedRan.Load() {
		t.Error("close returned before the queued session ran")
	}
	assertIdle(t, a)
	a.close() // idempotent
}

// TestServerPanicBackstop: a panic that escapes the session boundary is
// caught by dispatch's backstop — counted in PoolPanics, its charge
// released, mapped to a typed 500 — and the server keeps serving on its
// only slot.
func TestServerPanicBackstop(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	est := npb.ForkBytes(npb.ClassT)
	// A leaked charge would queue the next dispatch on the only slot: the
	// timeout turns that into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		_, err := s.dispatch(ctx, est, func() (npb.Result, error) {
			panic("poisoned session")
		})
		if err == nil || errors.Is(err, ErrSessionPanic) {
			t.Fatalf("escaped panic = %v, want a backstop error", err)
		}
		rec := httptest.NewRecorder()
		s.writeRunError(rec, err)
		if rec.Code != http.StatusInternalServerError || errKind(t, rec.Body.Bytes()) != kindInternal {
			t.Fatalf("backstop error answered %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	if got := s.Counters().PoolPanics; got != 3 {
		t.Errorf("pool panics = %d, want 3", got)
	}
	assertIdle(t, s.adm)
	if resp, body := postRun(t, ts, baseReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after backstop catches: %d %s", resp.StatusCode, body)
	}
}

// TestServerQueuedDeadline: a request that waits in the admission queue
// past its deadline gets a 504, builds no template, and leaves no charge
// behind once the session ahead of it finishes.
func TestServerQueuedDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	est := npb.ForkBytes(npb.ClassT)
	started, block := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	go func() {
		_, err := s.dispatch(context.Background(), est, func() (npb.Result, error) {
			close(started)
			<-block
			return npb.Result{}, nil
		})
		held <- err
	}()
	<-started

	req := baseReq
	req.DeadlineMS = 50
	resp, body := postRun(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: %d %s, want 504", resp.StatusCode, body)
	}
	if k := errKind(t, body); k != kindAborted {
		t.Errorf("kind = %s, want %s", k, kindAborted)
	}
	if g := s.Gauges(); g.TemplateBuilds != 0 || g.SchedQueued != 0 || g.SchedRunning != 1 || g.SchedChargedBytes != est {
		t.Errorf("after the queued abort: %d builds, %d queued, %d running, %d bytes charged",
			g.TemplateBuilds, g.SchedQueued, g.SchedRunning, g.SchedChargedBytes)
	}
	close(block)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	assertIdle(t, s.adm)
	req.DeadlineMS = 60_000
	if resp, body := postRun(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry with a live budget: %d %s", resp.StatusCode, body)
	}
}
