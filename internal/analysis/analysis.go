// Package analysis is sgmldb's domain-specific static-analysis suite: a
// from-scratch driver on go/parser and go/types (packages enumerated via
// `go list -json`), with analyzers that enforce the repo's hand-kept
// invariants mechanically:
//
//   - exhaustive: switches over closed kind sets (types marked
//     //sgmldbvet:closed) must handle every variant, so that removing or
//     adding a variant fails CI instead of surfacing as a runtime panic.
//   - ctxpoll: row-scan loops over valuation slices must poll context
//     cancellation, keeping long queries promptly cancellable.
//   - lockcheck: a method that acquires its receiver's mutex must release
//     it on every path and must not re-acquire it — directly or through
//     another method of the same receiver (self-deadlock).
//   - errwrap: fmt.Errorf with an error operand must wrap it with %w, and
//     facade-level errors must be sentinel-based.
//   - nopanic: a panic reachable from an exported function is flagged
//     unless annotated.
//   - faultpoint: fault-injection sites must be package-level
//     declarations, and production code may only Hit them — the arming
//     machinery stays in tests.
//   - atomiccheck: a struct field accessed through sync/atomic anywhere
//     must never be read or written plainly anywhere else.
//   - snapshotpin: one query/evaluator chain must load the published
//     engine State exactly once and thread it — a second load in the
//     same chain can observe a different epoch (torn snapshot).
//   - wirecode: every error sentinel must have a Code(err) wire-code
//     mapping and a DESIGN.md table entry, and HTTP handlers may respond
//     only through the JSON envelope helper.
//
// Intentional deviations are annotated in source as
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory.
//
// The driver analyzes target packages in parallel: one task per
// (per-package analyzer, package) pair plus one per whole-program
// analyzer, all sharing the single type-checked Program and its memoized
// indices (closed sets, call graph, atomic-field census, pin family).
// Findings are sorted into a deterministic order afterwards, so a
// parallel run reports exactly what a serial run reports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Standard   bool // part of the Go standard library
	Target     bool // named by the load patterns: analyzed, not just imported
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Program is a load result: the analysis targets plus every dependency,
// sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Dir      string     // the directory the load patterns were resolved in
	Packages []*Package // in dependency order (dependencies first)
	Targets  []*Package // the packages named by the load patterns
	packages map[string]*Package

	closedOnce sync.Once
	closed     *closedSets

	graphOnce sync.Once
	graph     *callGraph

	atomicOnce sync.Once
	atomics    *atomicCensus

	pinOnce sync.Once
	pins    *pinCensus
}

// Diagnostic is one finding, positioned in the program's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Finding is one fully resolved diagnostic: position rendered against
// the program's load directory, plus the suppression state the JSON
// emitter and the baseline machinery work with. Suppressed findings
// (covered by a //lint:allow directive) and baselined findings
// (grandfathered by a -baseline file) are reported in the JSON artifact
// but do not fail the build.
type Finding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"` // relative to the load directory when possible
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Baselined  bool   `json:"baselined"`

	pos token.Pos
}

// Pos returns the finding's position in the program's FileSet.
func (f Finding) Pos() token.Pos { return f.pos }

// Active reports whether the finding should fail the build: neither
// suppressed in source nor grandfathered by the baseline.
func (f Finding) Active() bool { return !f.Suppressed && !f.Baselined }

// Analyzer is one check. Exactly one of Run / RunPackage is set:
// RunPackage analyzes one target package and is the driver's unit of
// parallelism; Run analyzes the whole program at once (analyzers whose
// invariant spans packages, like the nopanic call graph). Neither may
// mutate the program.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(prog *Program, report func(Diagnostic))
	RunPackage func(prog *Program, pkg *Package, report func(Diagnostic))
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ExhaustiveAnalyzer,
		CtxpollAnalyzer,
		LockcheckAnalyzer,
		ErrwrapAnalyzer,
		NopanicAnalyzer,
		FaultpointAnalyzer,
		AtomicCheckAnalyzer,
		SnapshotPinAnalyzer,
		WireCodeAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Analyze applies the analyzers to the program's targets on the given
// number of workers (0 means GOMAXPROCS) and returns every diagnostic —
// suppressed ones included, marked — as findings in a deterministic
// order. Malformed //lint:allow directives (missing reason) are reported
// under the "directive" pseudo-analyzer and are never suppressible.
func Analyze(prog *Program, analyzers []*Analyzer, workers int) []Finding {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type task func(report func(Diagnostic))
	var tasks []task
	for _, a := range analyzers {
		a := a
		switch {
		case a.RunPackage != nil:
			for _, pkg := range prog.Targets {
				pkg := pkg
				tasks = append(tasks, func(report func(Diagnostic)) {
					a.RunPackage(prog, pkg, func(d Diagnostic) {
						d.Analyzer = a.Name
						report(d)
					})
				})
			}
		case a.Run != nil:
			tasks = append(tasks, func(report func(Diagnostic)) {
				a.Run(prog, func(d Diagnostic) {
					d.Analyzer = a.Name
					report(d)
				})
			})
		}
	}

	var (
		mu    sync.Mutex
		diags []Diagnostic
	)
	report := func(d Diagnostic) {
		mu.Lock()
		diags = append(diags, d)
		mu.Unlock()
	}
	ch := make(chan task)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				t(report)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()

	allows, bad := collectAllows(prog)
	findings := make([]Finding, 0, len(diags)+len(bad))
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		findings = append(findings, Finding{
			Analyzer:   d.Analyzer,
			File:       relFile(prog.Dir, pos.Filename),
			Line:       pos.Line,
			Col:        pos.Column,
			Message:    d.Message,
			Suppressed: allows.covers(d.Analyzer, pos),
			pos:        d.Pos,
		})
	}
	for _, d := range bad {
		pos := prog.Fset.Position(d.Pos)
		findings = append(findings, Finding{
			Analyzer: d.Analyzer,
			File:     relFile(prog.Dir, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  d.Message,
			pos:      d.Pos,
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// relFile renders a file path relative to the load directory (stable
// across machines, so baselines and JSON artifacts are portable).
func relFile(dir, file string) string {
	if dir == "" {
		return file
	}
	rel, err := filepath.Rel(dir, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return filepath.ToSlash(rel)
}

// Run applies the analyzers serially and returns the surviving
// diagnostics sorted by position: findings suppressed by a well-formed
// //lint:allow directive are dropped, and malformed directives (missing
// reason) are themselves reported. It is the single-goroutine view of
// Analyze, kept for tests and embedders that want plain diagnostics.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, f := range Analyze(prog, analyzers, 1) {
		if f.Suppressed {
			continue
		}
		out = append(out, Diagnostic{Pos: f.pos, Analyzer: f.Analyzer, Message: f.Message})
	}
	return out
}

// allowKey identifies one //lint:allow site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowSet map[allowKey]bool

// covers reports whether an allow directive for the analyzer sits on the
// diagnostic's line or the line directly above it.
func (s allowSet) covers(analyzer string, pos token.Position) bool {
	return s[allowKey{pos.Filename, pos.Line, analyzer}] ||
		s[allowKey{pos.Filename, pos.Line - 1, analyzer}]
}

// collectAllows gathers the //lint:allow directives of every target file.
// A directive without a reason is reported: the annotation grammar is
// "//lint:allow <analyzer> <reason>", and the reason is the audit trail.
func collectAllows(prog *Program) (allowSet, []Diagnostic) {
	allows := allowSet{}
	var bad []Diagnostic
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "lint:allow") {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
					pos := prog.Fset.Position(c.Pos())
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "directive",
							Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"",
						})
						continue
					}
					allows[allowKey{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return allows, bad
}

// funcBodies visits every function declaration of a target package with
// its resolved types.Func (nil receiver-less init bodies included).
func funcBodies(pkg *Package, visit func(decl *ast.FuncDecl, fn *types.Func)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
			visit(decl, fn)
		}
	}
}

// calleeOf resolves a call expression to the called named function or
// method, when the call is direct (not through an interface value whose
// dynamic type is unknown — those resolve to the interface method).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPanicCall reports a call to the builtin panic.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
