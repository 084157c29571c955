package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDriver builds simlint and runs it, through go vet, on the fixture
// module under testdata/mod. The module has no dependencies, so the test
// needs no network.
func TestDriver(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "simlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) (stdout, stderr string, code int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = filepath.Join("testdata", "mod")
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return o.String(), e.String(), code
	}
	runJSON := func(t *testing.T, args ...string) jsonReport {
		t.Helper()
		stdout, stderr, code := run(t, append([]string{"-json"}, args...)...)
		if code != 0 {
			t.Fatalf("simlint -json exited %d:\n%s", code, stderr)
		}
		dec := json.NewDecoder(strings.NewReader(stdout))
		var report jsonReport
		if err := dec.Decode(&report); err != nil {
			t.Fatalf("decoding %q: %v", stdout, err)
		}
		if dec.More() {
			t.Fatalf("-json printed more than one value:\n%s", stdout)
		}
		return report
	}

	t.Run("text", func(t *testing.T) {
		_, stderr, code := run(t, "./...")
		if code != 1 {
			t.Errorf("exit code %d, want 1", code)
		}
		seeded := []string{
			"[dettaint] non-deterministic value flows into",
			"[dettaint] wall-clock read time.Since",
			`[determinism] map iteration appends to "keys"`,
			"[lockorder] defer mu.Unlock() in a //simlint:hotpath function",
		}
		for _, s := range seeded {
			if n := strings.Count(stderr, s); n != 1 {
				t.Errorf("%q reported %d times, want once", s, n)
			}
		}
		if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != len(seeded) {
			t.Errorf("got %d output lines, want one per seeded finding:\n%s", len(lines), stderr)
		}
	})

	t.Run("json", func(t *testing.T) {
		report := runJSON(t, "./...")
		if len(report) != 5 {
			t.Errorf("got %d findings, want the 4 seeded plus 1 suppressed: %+v", len(report), report)
		}
		var suppressed []finding
		for _, f := range report {
			if f.Suppressed {
				suppressed = append(suppressed, f)
			}
		}
		if len(suppressed) != 1 || suppressed[0].Rule != "determinism" ||
			suppressed[0].SuppressReason != "callers sort the result" {
			t.Errorf("suppressed findings = %+v, want the one reasoned determinism ignore", suppressed)
		}
	})

	t.Run("facts", func(t *testing.T) {
		for _, f := range runJSON(t, "./internal/npb") {
			if f.Rule == "dettaint" && strings.Contains(f.Message, "returned by simlintfixture/dep.Stamp") {
				if f.Package != "simlintfixture/internal/npb" || len(f.Trace) == 0 ||
					!strings.Contains(f.Trace[0], filepath.Join("dep", "dep.go")) {
					t.Errorf("cross-package finding has the wrong package or trace: %+v", f)
				}
				return
			}
		}
		t.Error("no dettaint finding through dep.Stamp: facts did not cross the package boundary")
	})

	// positions lists every reported position, text and -json, on ./...
	positions := func(t *testing.T) []string {
		t.Helper()
		_, stderr, _ := run(t, "./...")
		posns := strings.Split(stderr, "\n")
		for _, f := range runJSON(t, "./...") {
			posns = append(posns, f.Posn)
		}
		return posns
	}

	t.Run("build_tags_excluded", func(t *testing.T) {
		for _, p := range positions(t) {
			if strings.Contains(p, "tagged.go") {
				t.Errorf("finding from a tag-excluded file: %s", p)
			}
		}
	})

	t.Run("test_files_excluded", func(t *testing.T) {
		for _, p := range positions(t) {
			if strings.Contains(p, "_test.go") {
				t.Errorf("finding from a test file: %s", p)
			}
		}
	})

	t.Run("clean", func(t *testing.T) {
		if _, stderr, code := run(t, "./dep"); code != 0 || stderr != "" {
			t.Errorf("exit code %d, output %q; want 0 and none", code, stderr)
		}
		if report := runJSON(t, "./dep"); report == nil || len(report) != 0 {
			t.Errorf("-json = %+v, want []", report)
		}
	})
}
