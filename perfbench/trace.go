package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a cell or a request) share Op; Parent is the span that caused
// this one (0 for an operation's root).
type span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span // in the order they ended
	nextID int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(op, parent int64, name string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: end})
		t.mu.Unlock()
	}
}

// total returns the summed duration of the spans named name, and their
// count.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return d, n
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clientLabel marks the goroutines that do the benchmark's own work:
// sending requests, decoding answers, checking digests. The CPU profile
// leaves their samples out, so prof.* shows the program's time only.
// Goroutines started by a labelled one inherit the label; the servers are
// started outside it.
const clientLabel = "perfbench"

// asClient runs f under clientLabel.
func asClient(f func()) {
	pprof.Do(context.Background(), pprof.Labels(clientLabel, "client"), func(context.Context) { f() })
}

// cpuProfile records the CPU profile of the timed phase of a traced run,
// which may be cut into pieces: resume starts a piece, pause ends it and
// adds its CPU time per layer, in ms, to folded. A nil *cpuProfile, as in
// untraced runs, does nothing.
type cpuProfile struct {
	buf    bytes.Buffer
	on     bool
	err    error // of the first resume that failed
	folded map[string]float64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{folded: map[string]float64{}} }

func (p *cpuProfile) resume() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
	p.on = p.err == nil
}

// pause ends the current piece and folds it: a sample is charged to the
// layer of its leaf frame, unless it carries clientLabel.
func (p *cpuProfile) pause() error {
	if p == nil {
		return nil
	}
	if !p.on {
		return p.err
	}
	pprof.StopCPUProfile()
	p.on = false
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range stacks {
		if !s.client {
			p.folded[layerOf(s.frames)] += float64(s.nanos) / 1e6
		}
	}
	return nil
}

// layerOf folds a stack (leaf first) to the layer of its leaf frame's
// package. Runtime leaves are split by what the stack was doing: garbage
// collection and allocation, goroutine scheduling, or other runtime work.
func layerOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	pkg := funcPackage(leaf)
	switch {
	case strings.HasPrefix(pkg, "hugeomp/internal/"):
		return pkg[strings.LastIndex(pkg, "/")+1:]
	case pkg == "encoding/json":
		return "json"
	case strings.HasPrefix(pkg, "net/http"), pkg == "net/textproto", pkg == "net", pkg == "internal/poll", pkg == "bufio":
		return "http"
	case pkg == "syscall", strings.HasSuffix(pkg, "/syscall"), pkg == "internal/syscall/unix":
		return "syscall"
	case pkg != "runtime":
		return "other"
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if schedFrames[f] {
			return "runtime_sched"
		}
	}
	return "runtime"
}

// funcPackage returns the import path of a symbol such as
// "hugeomp/internal/machine.(*Context).Access".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.malloc", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime._GC"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

var schedFrames = map[string]bool{}

func init() {
	for _, f := range []string{"schedule", "findRunnable", "Gosched", "goschedImpl", "gosched_m", "park_m",
		"gopark", "goready", "ready", "wakep", "startm", "stopm", "sysmon", "mstart", "mcall", "futex",
		"futexsleep", "futexwakeup", "usleep", "osyield", "procyield", "lock2", "unlock2", "chansend",
		"chanrecv", "selectgo", "netpoll", "notesleep", "notewakeup", "runqgrab", "stealWork",
		"semacquire1", "semrelease1", "_System"} {
		schedFrames["runtime."+f] = true
	}
}

// stack is one decoded profile sample: its frames, leaf first, the CPU
// time it stands for, and whether it carries clientLabel.
type stack struct {
	frames []string
	nanos  int64
	client bool
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes,
// keeping only what layer folding needs: samples and their label keys,
// locations, functions and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs      []uint64
		values    []int64
		labelKeys []uint64 // string indexes
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3: // label
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							s.labelKeys = append(s.labelKeys, v)
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		st := stack{nanos: s.values[1]} // values: [samples, cpu nanoseconds]
		for _, k := range s.labelKeys {
			st.client = st.client || k < uint64(len(strs)) && strs[k] == clientLabel
		}
		for _, l := range s.locs {
			for _, fn := range locFn[l] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields fn
// receives the value; for length-delimited fields, the bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (data).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
