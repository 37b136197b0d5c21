// Package loader type-checks workspace packages for the oramlint driver
// without golang.org/x/tools: it shells out to `go list -export -deps` to
// obtain compiled export data for every dependency, then parses and checks
// each target package's source against a gc-export importer.
//
// This is the same division of labor as go/packages' LoadAllSyntax for the
// target set with export-data for the closure, built on only the standard
// library so the repo stays dependency-free.
package loader

import (
	"encoding/json"
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
	"sort"
	"strings"

	"freecursive/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Package is one parsed, type-checked workspace package.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Pass builds an analysis.Pass over the package for the given analyzer.
func (p *Package) Pass(report func(analysis.Diagnostic)) *analysis.Pass {
	return &analysis.Pass{
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Pkg,
		TypesInfo: p.TypesInfo,
		Report:    report,
	}
}

// Load lists, parses, and type-checks the packages matched by patterns
// (e.g. "./..."), in deterministic import-path order. Test files are not
// included: the invariants the suite enforces are about serving code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v", strings.Join(patterns, " "), err)
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard && lp.Name != "" {
			lp := lp
			targets = append(targets, &lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func check(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}
