package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hugeomp/internal/memo/diskcache"
	"hugeomp/internal/npb"
	"hugeomp/internal/simsrv"
	"hugeomp/internal/units"
)

// simdConfig is a simsrv configuration with cmd/simd's flag defaults.
func simdConfig(cacheDir string, memoCap int) simsrv.Config {
	return simsrv.Config{
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     2 * time.Minute,
		MemoCapacity:    memoCap,
		CacheDir:        cacheDir,
	}
}

// simdMemoCapacity is simd's -memo-capacity default.
const simdMemoCapacity = 4096

// service is a simsrv server behind a loopback HTTP listener.
type service struct {
	srv    *simsrv.Server
	http   *http.Server
	url    string
	dir    string // disk cache directory
	client *http.Client
	done   chan struct{}
}

// startService starts a server with cfg on a loopback port. The port
// accepts connections once it returns.
func startService(cfg simsrv.Config, clients int) (*service, error) {
	srv, err := simsrv.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		dir:  cfg.CacheDir,
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop drains the server, shuts the listener down, waits for it, and
// removes the disk cache directory.
func (s *service) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // in-flight requests finished or timed out
	<-s.done
	s.srv.Close()
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.dir)
}

// answer is the part of simd's /run answer the benchmark checks.
type answer struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// post sends one request and returns the decoded answer and the time from
// sending to having read the whole body.
func (s *service) post(c config) (answer, time.Duration, error) {
	body, err := json.Marshal(c.request())
	if err != nil {
		return answer{}, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return answer{}, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, lat, fmt.Errorf("%s: %s: %s", c.id(), resp.Status, bytes.TrimSpace(raw))
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		return answer{}, lat, fmt.Errorf("%s: decode answer: %w", c.id(), err)
	}
	return a, lat, nil
}

// load is what the timed phase observed, summed over its epochs.
type load struct {
	attempted, failed int
	lat               []float64 // ms, of the requests the server simulated
	accesses          uint64    // simulated accesses in the answers
	elapsed           float64   // s, summed over the epochs
	ops               atomic.Int64

	// Traced runs only.
	sims     *simCounts
	computed []config // configs of the answers the servers simulated
	keys     []string // their content keys, in the current epoch
	getTime  time.Duration
	gets     int
}

// closedLoop runs one epoch against svc: e.clients clients, each sending
// its next request only after the previous answer, until the epoch's
// requests are all sent or the timed phase has lasted e.seconds. It reports
// whether the time ran out. The latencies of the answers the server
// simulated count as the operation's.
func closedLoop(e *env, svc *service, st *stream, l *load) (timeUp bool) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.seconds - time.Duration(l.elapsed*float64(time.Second)))
	l.keys = nil
	for i := 0; i < e.clients; i++ {
		wg.Add(1)
		go asClient(func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c, ok := st.take()
				if !ok {
					return
				}
				_, end := e.tr.begin(l.ops.Add(1), 0, "http.post")
				a, lat, err := svc.post(c)
				end()
				if err == nil {
					err = e.dig.checkRaw(c, a.Result)
				}
				var res npb.Result
				if err == nil && e.tr != nil && !a.Cached {
					err = json.Unmarshal(a.Result, &res)
				}
				mu.Lock()
				l.attempted++
				if err != nil {
					// A failed request counts among the timed ones.
					l.failed++
					l.lat = append(l.lat, ms(lat))
					fmt.Fprintln(os.Stderr, "perfbench: request failed:", err)
				} else {
					l.accesses += e.dig[c.id()].accesses
					if !a.Cached {
						l.lat = append(l.lat, ms(lat))
						if e.tr != nil {
							l.sims.add(c, res, 0)
							l.computed = append(l.computed, c)
							l.keys = append(l.keys, a.Key)
						}
					}
				}
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	l.elapsed += time.Since(start).Seconds()
	return !time.Now().Before(deadline)
}

// serveCold times fresh servers with simd's defaults and empty disk caches
// under serve-cold's seeded stream. Each epoch of the stream goes to a
// server of its own, so every config is new to the server the first time
// the epoch sends it. Starting and stopping the servers between epochs is
// left out of the timed phase and of the CPU profile.
func serveCold(e *env) (*outcome, error) {
	out := newOutcome()
	newService := func() (*service, error) {
		dir, err := os.MkdirTemp(e.work, "cold-")
		if err != nil {
			return nil, err
		}
		return startService(simdConfig(dir, simdMemoCapacity), e.clients)
	}
	var svc *service
	if err := setUp(out, func() (func(), error) {
		s, err := newService()
		svc = s
		if err != nil {
			return nil, err
		}
		return s.stop, nil
	}); err != nil {
		return nil, err
	}

	st := coldStream(e.seed)
	l := &load{sims: newSimCounts()}
	var deltas serverDeltas
	for {
		before := snapshot(e, svc)
		e.prof.resume()
		timeUp := closedLoop(e, svc, st, l)
		err := e.prof.pause()
		deltas.add(before, snapshot(e, svc))
		if err == nil && e.tr != nil {
			err = l.timeDiskGets(svc.dir)
		}
		if err != nil || timeUp {
			defer svc.stop()
			if err != nil {
				return nil, err
			}
			break
		}
		svc.stop()
		st.nextEpoch()
		if svc, err = newService(); err != nil {
			return nil, err
		}
	}
	out.attempted, out.failed = l.attempted, l.failed
	if err := setLatency(out, l.lat, l.elapsed, l.accesses); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}
	deltas.into(out.layers, l.attempted)
	l.sims.into(out.layers)
	timeRunKeys(l.computed, out)
	out.layers["diskcache.get_us"] = float64(l.getTime.Nanoseconds()) / 1e3 / float64(max(1, l.gets))
	return out, nil
}

// serverStats is a server's counters and the process's allocation total at
// one moment of a traced run.
type serverStats struct {
	c     simsrv.Counters
	g     simsrv.Gauges
	d     diskcache.Stats
	alloc uint64
}

func snapshot(e *env, svc *service) serverStats {
	if e.tr == nil {
		return serverStats{}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return serverStats{svc.srv.Counters(), svc.srv.Gauges(), svc.srv.DiskStats(), mem.TotalAlloc}
}

// serverDeltas sums the change of the servers' counters over the epochs,
// and keeps the highest of their peak gauges.
type serverDeltas struct {
	requests, rejected, failed, hits, misses, evicted  uint64
	budgetWaits, builds                                uint64
	diskHits, diskMisses, diskWrites, diskWaits, alloc uint64
	peakBytes, tmplBytes                               int64
}

func (s *serverDeltas) add(a, b serverStats) {
	s.requests += b.c.Requests - a.c.Requests
	s.rejected += b.c.Rejected - a.c.Rejected
	s.failed += b.c.Failed - a.c.Failed
	s.hits += b.c.CacheHits - a.c.CacheHits
	s.misses += b.c.MemoMisses - a.c.MemoMisses
	s.evicted += b.c.MemoEvicted - a.c.MemoEvicted
	s.budgetWaits += b.g.SchedBudgetWaits - a.g.SchedBudgetWaits
	s.builds += b.g.TemplateBuilds - a.g.TemplateBuilds
	s.diskHits += b.d.Hits - a.d.Hits
	s.diskMisses += b.d.Misses - a.d.Misses
	s.diskWrites += b.d.Writes - a.d.Writes
	s.diskWaits += b.d.Waits - a.d.Waits
	s.alloc += b.alloc - a.alloc
	s.peakBytes = max(s.peakBytes, b.g.SchedPeakBytes)
	s.tmplBytes = max(s.tmplBytes, b.g.TemplateBytes)
}

func (s *serverDeltas) into(ly map[string]float64, attempted int) {
	ly["go.alloc_mb"] = float64(s.alloc) / float64(units.MB) / float64(max(1, attempted))
	ly["simsrv.requests"] = float64(s.requests)
	ly["simsrv.rejected"] = float64(s.rejected)
	ly["simsrv.failed"] = float64(s.failed)
	ly["sched.peak_mb"] = float64(s.peakBytes) / float64(units.MB)
	ly["sched.budget_waits"] = float64(s.budgetWaits)
	ly["tmplpool.builds"] = float64(s.builds)
	ly["tmplpool.bytes"] = float64(s.tmplBytes)
	ly["memo.hits"] = float64(s.hits)
	ly["memo.misses"] = float64(s.misses)
	ly["memo.evictions"] = float64(s.evicted)
	if s.requests > 0 {
		ly["memo.hit_pct"] = 100 * float64(s.hits) / float64(s.requests)
	}
	ly["diskcache.hits"] = float64(s.diskHits)
	ly["diskcache.misses"] = float64(s.diskMisses)
	ly["diskcache.writes"] = float64(s.diskWrites)
	ly["diskcache.waits"] = float64(s.diskWaits)
}

// timeRunKeys times npb.RunKey, the memo's content key, over the configs
// the servers simulated. It runs after the timed phase, so the profile does
// not see it.
func timeRunKeys(cfgs []config, out *outcome) {
	var d time.Duration
	n := 0
	for _, c := range cfgs {
		rc, err := c.runConfig()
		if err != nil {
			continue
		}
		t0 := time.Now()
		npb.RunKey(c.Kernel, rc)
		d += time.Since(t0)
		n++
	}
	out.layers["memo.key_us"] = float64(d.Nanoseconds()) / 1e3 / float64(max(1, n))
}

// timeDiskGets times diskcache.Store.Get over the keys the epoch's server
// wrote, from a second Store on its cache directory, as another process
// would open it. It runs between epochs, outside the timed phase and the
// profile.
func (l *load) timeDiskGets(dir string) error {
	if len(l.keys) == 0 {
		return nil
	}
	store, err := diskcache.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, k := range l.keys {
		if _, ok := store.Get(k); !ok {
			return fmt.Errorf("disk cache lacks key %s", k)
		}
	}
	l.getTime += time.Since(t0)
	l.gets += len(l.keys)
	return nil
}
