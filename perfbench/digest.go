package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hugeomp/internal/npb"
)

// digestFile holds the SHA-256 of the canonical JSON npb.Result of every
// config any workload can use, one "<config id> <hex digest> <accesses>"
// per line; accesses is the result's simulated loads+stores. It is
// rewritten only by -update-digests.
const digestFile = "digests.txt"

// committed is one digest file entry.
type committed struct {
	sum      string
	accesses uint64
}

// digests maps config ids to their committed results.
type digests map[string]committed

// resultDigest is the SHA-256 of a result's canonical JSON encoding
// (encoding/json's Marshal, the encoding simd answers with).
func resultDigest(res npb.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// check reports whether res is the committed result of c.
func (d digests) check(c config, res npb.Result) error {
	got, err := resultDigest(res)
	if err != nil {
		return err
	}
	return d.compare(c, got)
}

// checkRaw checks a result as served: raw is the "result" member of a simd
// answer, whose bytes simd encodes the way resultDigest does.
func (d digests) checkRaw(c config, raw []byte) error {
	sum := sha256.Sum256(bytes.TrimSpace(raw))
	return d.compare(c, hex.EncodeToString(sum[:]))
}

func (d digests) compare(c config, got string) error {
	want, ok := d[c.id()]
	if !ok {
		return fmt.Errorf("%s: no committed digest (regenerate with -update-digests)", c.id())
	}
	if got != want.sum {
		return fmt.Errorf("%s: result digest %s, committed %s", c.id(), got[:12], want.sum[:12])
	}
	return nil
}

func loadDigests(dir string) (digests, error) {
	f, err := os.Open(filepath.Join(dir, digestFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := digests{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || len(fields[1]) != 2*sha256.Size {
			return nil, fmt.Errorf("%s: malformed line %q", digestFile, sc.Text())
		}
		n, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", digestFile, err)
		}
		d[fields[0]] = committed{sum: fields[1], accesses: n}
	}
	return d, sc.Err()
}

// allConfigs is every config any workload can send; the two sets are
// disjoint (class W and class T).
func allConfigs() []config {
	return slices.Concat(fig4Grid(), coldSpace())
}

// coldResult runs c cold through npb.Run, the batch path.
func coldResult(c config) (npb.Result, error) {
	k, err := npb.New(c.Kernel)
	if err != nil {
		return npb.Result{}, err
	}
	rc, err := c.runConfig()
	if err != nil {
		return npb.Result{}, err
	}
	return npb.Run(k, rc)
}

// updateDigests recomputes every digest with cold runs on workers
// goroutines and rewrites the digest file.
func updateDigests(dir string, workers int) error {
	cfgs := allConfigs()
	lines := make([]string, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := coldResult(cfgs[i])
				if err == nil {
					var sum string
					sum, err = resultDigest(res)
					lines[i] = fmt.Sprintf("%s %s %d", cfgs[i].id(), sum, res.Counters.Accesses())
				}
				errs[i] = err
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", cfgs[i].id(), err)
		}
	}
	sort.Strings(lines)
	return os.WriteFile(filepath.Join(dir, digestFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
