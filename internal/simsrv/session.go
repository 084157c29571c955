package simsrv

import (
	"context"
	"errors"
	"fmt"

	"hugeomp/internal/check"
	"hugeomp/internal/npb"
	"hugeomp/internal/omp"
)

// run answers one compiled request: memoized, single-flighted, executed
// under admission control and ctx's deadline budget.
//
// The memo collapses concurrent identical requests onto one flight. When
// that flight's leader is cancelled, its abort error is reported to every
// collapsed waiter and the key is forgotten — so a waiter whose own budget
// is still live retries and becomes the new leader, keeping retries
// idempotent: the first request to actually finish publishes the
// bit-deterministic result everyone else decodes.
func (s *Server) run(ctx context.Context, cfg npb.RunConfig, kernel, key string) (npb.Result, bool, error) {
	for {
		var res npb.Result
		hit, err := s.memo.GetOrCompute(key, func() (any, error) {
			return s.dispatch(ctx, npb.ForkBytes(cfg.Class), func() (npb.Result, error) {
				return s.session(ctx, cfg, kernel, "")
			})
		}, &res)
		if err == nil {
			return res, hit, nil
		}
		if errors.Is(err, omp.ErrAborted) && ctx.Err() == nil {
			// The flight we were collapsed onto died with its leader's
			// budget, not ours: retry under our own.
			s.ctr.retries.Add(1)
			continue
		}
		return npb.Result{}, false, err
	}
}

// dispatch admits one session — charging a worker slot and est bytes
// through the admission queue — and runs it inline on the caller's
// goroutine. A full queue refuses at once with ErrSaturated, a draining
// server with ErrDraining, and a request whose deadline ends while it waits
// leaves with an omp.ErrAborted-wrapping error; none of them holds a
// charge. Once admitted, the session runs to a conclusion: a cancelled
// request's session observes the dead context at its first checkpoint and
// returns within one checkpoint interval, freeing its slot.
//
// The recover here is a backstop behind session's own boundary: a panic
// that escapes it is counted (PoolPanics), the charge is released, and the
// request gets a typed 500 — the server never dies with a session.
func (s *Server) dispatch(ctx context.Context, est int64, session func() (npb.Result, error)) (res npb.Result, err error) {
	if err := s.adm.acquire(ctx, est); err != nil {
		return npb.Result{}, err
	}
	defer s.adm.release(est)
	defer func() {
		if r := recover(); r != nil {
			s.ctr.poolPanics.Add(1)
			res, err = npb.Result{}, fmt.Errorf("simsrv: panic escaped the session boundary: %v", r)
		}
	}()
	return session()
}

// session is one simulation and the panic boundary around it: a panic
// anywhere inside — kernel, runtime, machine model, or an injected fault —
// is recovered here, counted, and converted into a typed error for this
// request only. The poisoned fork is simply abandoned (its COW pagetables
// share nothing writable with the snapshot), and the shared template is
// audited before being trusted again.
func (s *Server) session(ctx context.Context, cfg npb.RunConfig, kernel, inject string) (res npb.Result, err error) {
	w, key, terr := s.template(cfg, kernel)
	if terr != nil {
		return npb.Result{}, terr
	}
	e := s.tmplEntryFor(key)
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panicked.Add(1)
			if !s.auditTemplate(w, cfg) {
				s.evictTemplate(key, e)
			}
			err = fmt.Errorf("%w: %v", ErrSessionPanic, r)
		}
	}()
	if inject == "panic" {
		panic("simsrv: injected session panic")
	}
	run := cfg
	run.Ctx = ctx
	result, _, _, rerr := w.RunOn(run)
	if rerr != nil {
		return npb.Result{}, rerr
	}
	return result, nil
}

// auditTemplate asserts COW sibling isolation after a panic: a fresh fork of
// the template must run to a verified completion and pass the full machine
// audit. True means the snapshot is intact — the panic died with its own
// fork; false quarantines the template. The audit run is uncancellable by
// design: it is the server deciding whether its own shared state is sound.
func (s *Server) auditTemplate(w *npb.Warm, cfg npb.RunConfig) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false // the snapshot itself reproduces the panic
		}
	}()
	probe := cfg
	probe.Ctx = nil
	_, sys, _, err := w.RunOn(probe)
	if err != nil || sys == nil {
		return false
	}
	return check.All(sys.Machine) == nil
}
