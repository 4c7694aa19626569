package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// listPackages enumerates the named patterns and their full dependency
// closure via `go list -json -deps`, which emits dependencies before the
// packages that import them — exactly the order a type checker needs.
// Cgo is disabled so every listed package is pure Go source.
func listPackages(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// parsedPackage is one package's parse result, produced concurrently.
type parsedPackage struct {
	files []*ast.File
	err   error
}

// parseAll parses every listed package's files on a worker pool sharing
// one FileSet (token.FileSet is safe for concurrent AddFile). Parsing
// dominates load time before type checking, and every package's parse is
// independent, so this is the cheap half of the driver's parallelism;
// type checking stays sequential in dependency order.
func parseAll(fset *token.FileSet, listed []listedPackage) []parsedPackage {
	out := make([]parsedPackage, len(listed))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, lp := range listed {
		if lp.ImportPath == "unsafe" || lp.Error != nil || len(lp.GoFiles) == 0 {
			continue
		}
		target := !lp.DepOnly && !lp.Standard
		mode := parser.SkipObjectResolution
		if target || !lp.Standard {
			// Targets keep comments: the //sgmldbvet:closed and
			// //lint:allow directives live there. So do module dependencies,
			// whose type declarations may carry closed-set directives used
			// while analyzing a dependent package.
			mode |= parser.ParseComments
		}
		i, lp := i, lp
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			files := make([]*ast.File, 0, len(lp.GoFiles))
			for _, f := range lp.GoFiles {
				file, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, mode)
				if err != nil {
					out[i].err = fmt.Errorf("analysis: parsing %s: %w", lp.ImportPath, err)
					return
				}
				files = append(files, file)
			}
			out[i].files = files
		}()
	}
	wg.Wait()
	return out
}

// Load enumerates the packages matching the patterns (relative to dir),
// parses them in parallel and type-checks them together with their whole
// dependency closure into one shared Program ready for analysis. Only
// the packages named by the patterns become analysis targets;
// dependencies (including the standard library, type-checked from source
// with function bodies ignored) serve solely as type information.
//
// Loading is strict about driver-level failures so the vet gate cannot
// silently pass a broken tree: a pattern set that matches no packages, a
// package `go list` reports an error for, a file that does not parse,
// and a target or module-dependency package that does not type-check are
// all errors. (Standard-library packages stay lenient: their bodies may
// use compiler intrinsics that do not check from source.)
func Load(dir string, patterns []string) (*Program, error) {
	listed, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}
	prog := &Program{
		Fset:     token.NewFileSet(),
		Dir:      absDir,
		packages: map[string]*Package{},
	}
	parsed := parseAll(prog.Fset, listed)
	typesPkgs := map[string]*types.Package{"unsafe": types.Unsafe}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := typesPkgs[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("analysis: import %q not loaded", path)
	})
	for i, lp := range listed {
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			return nil, fmt.Errorf("analysis: %s has no Go files", lp.ImportPath)
		}
		if parsed[i].err != nil {
			return nil, parsed[i].err
		}
		target := !lp.DepOnly && !lp.Standard
		files := parsed[i].files
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			// Dependency bodies are irrelevant to export information;
			// skipping them keeps whole-stdlib checking cheap.
			IgnoreFuncBodies: !target && lp.Standard,
			// Dependencies may contain constructs whose *bodies* do not
			// check cleanly from source (compiler intrinsics); collect
			// instead of aborting, the package object is still usable.
			Error: func(error) {},
		}
		tpkg, err := conf.Check(lp.ImportPath, prog.Fset, files, info)
		if err != nil && !lp.Standard {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", lp.ImportPath, err)
		}
		typesPkgs[lp.ImportPath] = tpkg
		pkg := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Standard:   lp.Standard,
			Target:     target,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		}
		prog.packages[lp.ImportPath] = pkg
		prog.Packages = append(prog.Packages, pkg)
		if target {
			prog.Targets = append(prog.Targets, pkg)
		}
	}
	if len(prog.Targets) == 0 {
		return nil, fmt.Errorf("analysis: patterns %s matched no packages", strings.Join(patterns, " "))
	}
	return prog, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
