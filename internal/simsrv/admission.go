package simsrv

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hugeomp/internal/omp"
)

// admission is simd's one admission queue. Every session is charged one
// worker slot plus its estimated fork footprint (npb.ForkBytes) before it
// runs, and runs inline on the request's own goroutine while it holds the
// charge. A session that does not fit — all slots busy, or the bytes would
// overflow the memory budget — waits in a single FIFO, spending its own
// deadline budget, never the server's; a bounded queue turns further
// arrivals into ErrSaturated (429), a waiter whose context ends leaves with
// an omp.ErrAborted-wrapping error (504) holding nothing, and a closed
// controller answers ErrDraining (503). Requests answerable from a cache
// layer never reach it: the memo and disk lookups run first, so under
// saturation the service keeps serving exactly the cache-hit-likely traffic
// while compute-bound requests queue.
//
// Order is strict FIFO: a small request never overtakes a large one, so no
// class starves. One deliberate asymmetry: an idle controller (nothing
// charged) admits a request even when its footprint alone exceeds the
// budget. The budget bounds concurrent packing; it must not make a large
// class permanently unservable.
type admission struct {
	slots    int   // concurrent sessions
	budget   int64 // bytes; 0 = unbounded
	maxQueue int   // bound on waiting sessions

	mu      sync.Mutex
	idle    sync.Cond // signalled when running drops to zero
	closed  bool
	running int
	charged int64
	peak    int64
	waiters []*waiter

	waits atomic.Uint64 // admissions that had to queue, for a slot or bytes
}

type waiter struct {
	est   int64
	ready chan struct{} // closed by release once the waiter's charge is applied
}

// newAdmission sizes the controller: slots <= 0 defaults to GOMAXPROCS (one
// simulation saturates one host core), maxQueue <= 0 to 2×slots.
func newAdmission(slots, maxQueue int, budget int64) *admission {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	if maxQueue <= 0 {
		maxQueue = 2 * slots
	}
	a := &admission{slots: slots, budget: budget, maxQueue: maxQueue}
	a.idle.L = &a.mu
	return a
}

// fitsLocked reports whether one more session of est bytes may run now. An
// idle controller always fits (see the type comment).
func (a *admission) fitsLocked(est int64) bool {
	if a.running == 0 {
		return true
	}
	return a.running < a.slots && (a.budget <= 0 || a.charged+est <= a.budget)
}

func (a *admission) chargeLocked(est int64) {
	a.running++
	a.charged += est
	a.peak = max(a.peak, a.charged)
}

// acquire charges (1 slot, est bytes), waiting FIFO under ctx for running
// sessions to release enough. A request whose budget is already spent is
// refused before it can occupy a slot, so no uncancellable work (a template
// build) ever starts on a dead deadline.
func (a *admission) acquire(ctx context.Context, est int64) error {
	if err := ctx.Err(); err != nil {
		return aborted(err)
	}
	a.mu.Lock()
	switch {
	case a.closed:
		a.mu.Unlock()
		return ErrDraining
	case len(a.waiters) == 0 && a.fitsLocked(est):
		a.chargeLocked(est)
		a.mu.Unlock()
		return nil
	case len(a.waiters) >= a.maxQueue:
		a.mu.Unlock()
		return ErrSaturated
	}
	w := &waiter{est: est, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()
	a.waits.Add(1)

	select {
	case <-w.ready:
		if err := ctx.Err(); err != nil {
			// Granted as the deadline passed: do not start on it.
			a.release(est)
			return aborted(err)
		}
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		removed := a.removeWaiterLocked(w)
		a.mu.Unlock()
		if !removed {
			// Granted concurrently with the abort: we own a charge we will
			// never use. Hand it back (this also wakes the next waiter).
			a.release(est)
		}
		return aborted(ctx.Err())
	}
}

func aborted(cause error) error {
	return fmt.Errorf("%w: deadline spent waiting for admission: %v", omp.ErrAborted, cause)
}

func (a *admission) removeWaiterLocked(w *waiter) bool {
	for i, x := range a.waiters {
		if x == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// release returns one slot and est bytes and admits, in FIFO order, every
// waiter the freed capacity now fits.
func (a *admission) release(est int64) {
	a.mu.Lock()
	a.running--
	a.charged -= est
	for len(a.waiters) > 0 && a.fitsLocked(a.waiters[0].est) {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.chargeLocked(w.est)
		close(w.ready)
	}
	if a.running == 0 {
		a.idle.Broadcast()
	}
	a.mu.Unlock()
}

// close refuses every later acquire with ErrDraining and waits until every
// admitted session — including waiters queued before the close, which keep
// their place — has released. Idempotent.
func (a *admission) close() {
	a.mu.Lock()
	a.closed = true
	for a.running > 0 {
		a.idle.Wait()
	}
	a.mu.Unlock()
}

// snapshot returns the controller's point-in-time readings.
func (a *admission) snapshot() (queued, running int, charged, peak int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters), a.running, a.charged, a.peak
}
