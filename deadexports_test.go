package gsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportsAllowed lists the exported package-level names in internal/
// that no non-test file outside benchmark/ references, each with why it
// stays. A name leaves the list when it is deleted or gains a caller;
// TestNoDeadExports fails on an entry that no longer applies.
var deadExportsAllowed = map[string]string{
	// Ladder-only: timed by benchmark/ladder.go alone, until the ladder
	// times what the served path runs.
	"gsim/internal/core.NewSearcher":   "ladder-only: the ladder's posterior rung",
	"gsim/internal/db.BuildEntries":    "ladder-only: recovery prepares through shard.Map.Prepare",
	"gsim/internal/db.ReadSegment":     "ladder-only: recovery now reads through ReadSegmentEach",
	"gsim/internal/engine.Scan":        "ladder-only: the engine rung; searches scan through ScanRanges",
	"gsim/internal/engine.ScanBatch":   "ladder-only: the entry-major batch rung",
	"gsim/internal/index.FlattenViews": "ladder-only: the flattened-prefilter rung",
	"gsim/internal/method.AsBatch":     "ladder-only: the batch-scorer rung",
	"gsim/internal/qcache.New":         "ladder-only: the result-cache rung; nothing serves from the cache",
	"gsim/internal/wal.AppendRecord":   "ladder-only: the journal appends through AppendPacked",
	"gsim/internal/wal.Replay":         "ladder-only: recovery replays through ReplayFS",

	// Test hooks: seams the tests drive.
	"gsim/internal/faultfs.ENOSPC":          "test hook: the injected disk-full error",
	"gsim/internal/faultfs.NewInjector":     "test hook: fault injection for the degraded-mode tests",
	"gsim/internal/method.SetDecompCounter": "test hook: counts Score calls in the column tests",
	"gsim/internal/graph.New":               "test hook: builds graphs edge by edge in tests",
	"gsim/internal/graph.ExtendPair":        "test hook: pads a pair to equal size in the GED and branch tests",

	// Reference implementations the tests hold the served code to.
	"gsim/internal/branch.GBDGraphs":   "reference implementation: GBD from graphs, for the ID kernels",
	"gsim/internal/ged.Exact":          "reference implementation: exact GED ground truth in tests",
	"gsim/internal/index.PairPrunable": "reference implementation: the per-pair prefilter the columns must match",
}

// TestNoDeadExports parses the module and fails when an exported
// package-level name (function, type, variable or constant; methods and
// fields are out of scope) declared under internal/ is referenced by no
// non-test Go file outside benchmark/. A reference is a qualified use
// from another package, or any use of the bare name inside its own
// package other than its declaration.
func TestNoDeadExports(t *testing.T) {
	const module = "gsim"
	type file struct {
		pkg string // import path of the file's package
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "benchmark" || n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkg = module + "/" + dir
		}
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{} // "pkg.Name" of every export under internal/
	skip := map[*ast.Ident]bool{} // identifiers that name rather than use
	for _, fl := range files {
		internal := strings.HasPrefix(fl.pkg, module+"/internal/")
		declare := func(id *ast.Ident) {
			skip[id] = true
			if internal && id.IsExported() {
				declared[fl.pkg+"."+id.Name] = true
			}
		}
		for _, decl := range fl.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
		// Method names, field names, selected members and composite
		// literal keys spell a name without referring to the package-level
		// declaration of that name.
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			}
			return true
		})
	}

	used := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name → import path
		for _, spec := range fl.f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					used[fl.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var dead, stale []string
	for name := range declared {
		_, allowed := deadExportsAllowed[name]
		switch {
		case !used[name] && !allowed:
			dead = append(dead, name)
		case used[name] && allowed:
			stale = append(stale, name)
		}
	}
	for name := range deadExportsAllowed {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test file outside benchmark/ uses it: delete it, or unexport it", name)
	}
	for _, name := range stale {
		t.Errorf("%s is on the dead-export allowlist but is used or gone: drop the entry", name)
	}
}
