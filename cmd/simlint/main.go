// Command simlint runs the simulator's static contract checks: determinism
// (no order-sensitive map iteration in simulator packages), dettaint (no
// wall clocks, global rand or scheduler queries in simulator packages, and
// interprocedural determinism taint from host-state sources into profile
// counters and memo keys), lockorder (interprocedural lock-acquisition
// ordering against the documented hierarchy, with cycle detection, and no
// defer-unlock on //simlint:hotpath functions), ctxflow (loops issuing omp
// regions must reach rt.Checkpoint or carry //simlint:nocheckpoint),
// atomicfield (//simlint:atomic fields only touched through sync/atomic),
// cowshared (//simlint:cowshared snapshot-shared arrays only written inside
// //simlint:cowbarrier functions — the copy-on-write write barrier),
// padding (//simlint:padded layout and //simlint:writer false-sharing
// checks) and panicboundary (goroutines in opted-in packages install
// recover first).
//
//	simlint [-json] [packages]      # defaults to ./...
//
// simlint is a go vet tool. Given package patterns it re-executes
// `go vet -vettool=<itself>`, so cmd/go loads, type-checks and caches the
// packages, then calls the tool back with -V=full and -flags for the
// handshake and a single *.cfg argument per package, with the build system
// supplying export data for the imports. Interprocedural facts
// (per-function summaries) flow between packages through the vetx files
// cmd/go threads from dependencies to dependents and caches keyed by export
// data, so an unchanged package is never re-analyzed.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"hugeomp/internal/lint"
	"hugeomp/internal/lint/analysis"
)

var (
	versionFlag = flag.String("V", "", "print version and exit (the go command's vettool handshake)")
	flagsFlag   = flag.Bool("flags", false, "print the tool's flags as JSON and exit (vettool handshake)")
	jsonFlag    = flag.Bool("json", false, "emit diagnostics as one JSON array instead of text")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *versionFlag != "" {
		handshakeVersion()
		return
	}
	if *flagsFlag {
		handshakeFlags()
		return
	}
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vettool(args[0]))
	}
	os.Exit(goVet(args))
}

// --- go vet driver ---------------------------------------------------------

// goVet runs `go vet -vettool=<this binary>` over the patterns and relays
// its report without the "# pkg" header lines go vet puts above each
// package's output: text findings and the exit status pass through; with
// -json, the per-package arrays are merged into one.
func goVet(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"vet", "-vettool=" + exe}
	if *jsonFlag {
		args = append(args, "-json")
	}
	var out bytes.Buffer
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 2
		}
		code = exit.ExitCode()
	}
	var body bytes.Buffer
	for _, line := range bytes.SplitAfter(out.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("# ")) {
			body.Write(line)
		}
	}
	if *jsonFlag && code == 0 {
		return mergeJSON(body.Bytes())
	}
	os.Stderr.Write(body.Bytes())
	return code
}

// mergeJSON decodes the per-package finding arrays the vettool printed and
// emits them as one array, ordered by package (go vet runs packages in
// parallel, so its own order varies from run to run).
func mergeJSON(data []byte) int {
	var report jsonReport
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var pkg jsonReport
		if err := dec.Decode(&pkg); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: decoding go vet output: %v\n%s", err, data)
			return 2
		}
		report = append(report, pkg...)
	}
	sort.SliceStable(report, func(i, j int) bool { return report[i].Package < report[j].Package })
	report.print()
	return 0
}

// --- machine-readable findings ---------------------------------------------

// A finding is the SARIF-ish machine-readable form of one diagnostic:
// stable rule id, position, message, the interprocedural call-chain trace
// (outermost frame first), and the ignore status. Suppressed findings are
// included so audit tooling can see what the //simlint:ignore comments are
// holding back; consumers gating CI must filter on !suppressed.
type finding struct {
	Rule           string   `json:"rule"`
	Package        string   `json:"package"`
	Posn           string   `json:"posn"`
	Message        string   `json:"message"`
	Trace          []string `json:"trace,omitempty"`
	Suppressed     bool     `json:"suppressed,omitempty"`
	SuppressReason string   `json:"suppressReason,omitempty"`
}

type jsonReport []finding

func (r jsonReport) print() {
	if r == nil {
		r = jsonReport{} // emit [] rather than null for an empty report
	}
	data, err := json.MarshalIndent(r, "", "\t")
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// --- vettool handshake -----------------------------------------------------

// handshakeVersion implements -V=full. cmd/go parses the line for a buildID,
// so the shape must match what x/tools' unitchecker prints: a hash of the
// executable stands in for a real build ID.
func handshakeVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(exe), string(h.Sum(nil)))
}

// handshakeFlags implements -flags: the JSON flag inventory cmd/go uses to
// validate which flags it may forward to the tool.
func handshakeFlags() {
	type jsonFlagDesc struct {
		Name  string
		Bool  bool
		Usage string
	}
	var descs []jsonFlagDesc
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if bv, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = bv.IsBoolFlag()
		}
		descs = append(descs, jsonFlagDesc{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, err := json.Marshal(descs)
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// --- vettool .cfg mode -----------------------------------------------------

// vetConfig is the per-package JSON config cmd/go hands a vettool. Field
// names follow the x/tools unitchecker Config so either side can evolve.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	ModulePath                string
	ModuleVersion             string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command also runs the vettool over dependency packages so a
	// tool can accumulate facts. simlint's contracts only bind module code
	// and its fact producers only summarize module functions, so packages
	// outside any module (the standard library has an empty ModulePath) get
	// an empty fact file and nothing else (some of them also trip go/types
	// corner cases that never matter for module code).
	if cfg.ModulePath == "" {
		return writeVetx(cfg, nil)
	}

	// Seed the fact store with the dependencies' summaries: cmd/go hands us
	// one vetx file per import, produced by earlier runs of this tool and
	// cached keyed by export data (so unchanged packages are incremental).
	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		raw, err := os.ReadFile(vetx)
		if err != nil || len(raw) == 0 {
			continue // empty or missing vetx: a package with no facts
		}
		if err := facts.MergeEncoded(raw); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: reading facts %s: %v\n", vetx, err)
			return 1
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(cfg, nil)
			}
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Imports resolve through the export data the build system already
	// produced (cfg.PackageFile), so dependencies are never re-checked
	// from source.
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	sizes := types.SizesFor(cfg.Compiler, runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	conf := types.Config{Importer: imp, Sizes: sizes, GoVersion: cfg.GoVersion}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg, nil)
		}
		fmt.Fprintf(os.Stderr, "simlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := lint.Run(&lint.Unit{
		Fset:  fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
		Sizes: sizes,
		Facts: facts,
	}, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	if code := writeVetx(cfg, facts); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		return 0
	}

	if *jsonFlag {
		report := make(jsonReport, 0, len(diags))
		for _, d := range diags {
			report = append(report, finding{
				Rule:           d.Analyzer,
				Package:        cfg.ID,
				Posn:           d.Pos.String(),
				Message:        d.Message,
				Trace:          d.Trace,
				Suppressed:     d.Suppressed,
				SuppressReason: d.SuppressReason,
			})
		}
		report.print()
		return 0
	}
	code := 0
	for _, d := range diags {
		if !d.Suppressed {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
			code = 1
		}
	}
	return code
}

// writeVetx records this package's fact set (its own summaries plus the
// re-exported transitive ones) where the build system asked for it; cmd/go
// treats a missing output file as a tool failure.
func writeVetx(cfg *vetConfig, facts *analysis.FactStore) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	var data []byte
	if facts != nil {
		var err error
		if data, err = facts.Encode(); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: encoding facts: %v\n", err)
			return 1
		}
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	return 0
}
