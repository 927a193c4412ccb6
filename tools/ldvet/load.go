package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config carries the driver options plus the per-analyzer package
// scopes. The scopes are suffix-matched against unit import paths, so
// fixture packages under testdata/src (whose import path is the part
// after "testdata/src/") can opt in by mirroring the real layout.
type config struct {
	enable     map[string]bool
	jsonOut    bool
	goldenPath string
	update     bool
	// wireScope lists the packages whose computed json tag set is
	// pinned by the golden manifest: the /v1 wire layer plus every
	// package whose structs those types alias or embed, and the
	// store record documents.
	wireScope []string
	// floatScope lists the bit-identity kernel packages floatdet
	// polices.
	floatScope []string
	// ctxExempt lists path segments whose packages are entry points:
	// minting a fresh context there is the norm, not a bug.
	ctxExempt []string
}

// defaultConfig is the project wiring; tests override the scopes to
// point at fixtures.
func defaultConfig() *config {
	return &config{
		goldenPath: filepath.Join("tools", "ldvet", "wiretags.golden"),
		wireScope: []string{
			"repro",
			"repro/serve",
			"repro/internal/race",
			"repro/internal/core",
			"repro/internal/fitness",
			"repro/internal/shard",
		},
		floatScope: []string{
			"internal/ehdiall",
			"internal/genotype",
			"internal/fitness",
			"internal/clump",
		},
		ctxExempt: []string{"cmd", "tools", "examples"},
	}
}

// finding is one analyzer hit. Pos is "file:line:col" so the text
// output is clickable and the JSON output is grep-able.
type finding struct {
	Analyzer string `json:"analyzer"`
	Pos      string `json:"pos"`
	Msg      string `json:"message"`
}

// unit is one loaded, type-checked package directory.
type unit struct {
	dir   string
	path  string // import path ("repro/serve"; for fixtures, the part after testdata/src/)
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	// allow maps filename → line → analyzer names from
	// //ldvet:allow comments.
	allow map[string]map[int][]string
}

// posOf renders a token position as file:line:col.
func (u *unit) posOf(p token.Pos) string {
	pos := u.fset.Position(p)
	return fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
}

// allowedAt reports whether the analyzer is suppressed on any of the
// given source lines of the file holding p (the finding's line, the
// line above it, and for mutexio the line taking the lock).
func (u *unit) allowedAt(analyzer string, p token.Pos, extra ...token.Pos) bool {
	check := func(q token.Pos) bool {
		pos := u.fset.Position(q)
		lines := u.allow[pos.Filename]
		for _, ln := range []int{pos.Line, pos.Line - 1} {
			for _, name := range lines[ln] {
				if name == analyzer {
					return true
				}
			}
		}
		return false
	}
	if check(p) {
		return true
	}
	for _, q := range extra {
		if check(q) {
			return true
		}
	}
	return false
}

// pathInScope suffix-matches an import path against a scope list:
// "kernel/internal/fitness" matches the entry "internal/fitness".
func pathInScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// pathHasSegment reports whether any "/"-separated segment of the
// import path equals one of the names.
func pathHasSegment(path string, names []string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// expandPatterns resolves the argument list to package directories. A
// plain directory stands for itself; "DIR/..." walks DIR recursively,
// skipping testdata, hidden and tool-output directories and keeping
// only directories that contain non-test Go files.
func expandPatterns(args []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "/...")
		if !recursive {
			add(arg)
			continue
		}
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "bin" || name == "bench") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no packages matched %v", args)
	}
	return dirs, nil
}

// hasGoFiles reports whether dir contains at least one non-test Go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// loadUnits parses and type-checks each directory as one package.
// _test.go files are excluded — ldvet vets the shipped sources; tests
// are free to Background() and sleep as they like. One source
// importer is shared across the run so the stdlib is type-checked
// once.
func loadUnits(dirs []string) ([]*unit, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var units []*unit
	var modName string
	for _, dir := range dirs {
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		path, err := importPathFor(dir, &modName)
		if err != nil {
			return nil, err
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("%s: type checking: %v", dir, err)
		}
		units = append(units, &unit{
			dir:   dir,
			path:  path,
			fset:  fset,
			files: files,
			info:  info,
			pkg:   pkg,
			allow: collectAllows(fset, files),
		})
	}
	return units, nil
}

// parseDir parses every non-test Go file of one package directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		names := make([]string, 0, len(pkgs))
		for n := range pkgs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("%s: want exactly one package, have %v", dir, names)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			files = append(files, pkg.Files[name])
		}
	}
	return files, nil
}

// importPathFor derives the unit's import path. Fixture directories
// under a testdata/src tree use the path below it (the analysistest
// convention), so scope rules apply to fixtures exactly as they do to
// real packages; everything else is module-relative, with the module
// name read lazily from go.mod in the working directory.
func importPathFor(dir string, modName *string) (string, error) {
	slashed := filepath.ToSlash(filepath.Clean(dir))
	if _, after, ok := strings.Cut(slashed, "testdata/src/"); ok {
		return after, nil
	}
	if *modName == "" {
		name, err := moduleName()
		if err != nil {
			return "", err
		}
		*modName = name
	}
	rel, err := filepath.Rel(".", dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return *modName, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("%s: outside the module; run ldvet from the module root", dir)
	}
	return *modName + "/" + rel, nil
}

// moduleName reads the module path from ./go.mod.
func moduleName() (string, error) {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		return "", fmt.Errorf("reading go.mod (run ldvet from the module root): %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(name), nil
		}
	}
	return "", fmt.Errorf("go.mod: no module directive")
}

// collectAllows gathers //ldvet:allow comments: the analyzer names
// (comma-separated, optionally followed by ": justification") allowed
// per file and line.
func collectAllows(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//ldvet:allow")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				if i := strings.IndexAny(text, ":"); i >= 0 {
					text = text[:i] // strip the justification
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int][]string{}
				}
				for _, name := range strings.Split(text, ",") {
					if name = strings.TrimSpace(name); name != "" {
						out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], name)
					}
				}
			}
		}
	}
	return out
}

// analyzers is the suite registry; each entry runs over one unit.
// deadexport has no per-unit half: it is only the cross-unit pass
// runAnalyzers calls.
var analyzers = map[string]func(*unit, *config) []finding{
	"mutexio":    runMutexIO,
	"wiretag":    runWiretag,
	"ctxflow":    runCtxflow,
	"floatdet":   runFloatdet,
	"deadexport": func(*unit, *config) []finding { return nil },
}
