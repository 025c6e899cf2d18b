package main

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow names the functions that no production binary links but
// that stay anyway. Every entry is a seam another package's test needs.
var reachAllow = map[string]string{
	"repro/internal/sim.(*Sim).Stats":                "mac.TestEventCountPinned reads the fired/cancelled counts",
	"repro/internal/node.(*Node).NextHop":            "routing and topology tests read the installed routes",
	"repro/internal/sim.TotalFired":                  "root bench_test.go reports events/op from it",
	"repro/internal/obs/span.Tree":                   "tests in dist, experiments and serve compare canonical span trees",
	"repro/internal/obs/span.canonAttrKey":           "Tree's attr ordering",
	"repro/internal/scenario/sink.(*Memory).Write":   "tests in experiments and scenario collect records in memory",
	"repro/internal/scenario/sink.(*Memory).Close":   "the Memory sink's Close",
	"repro/internal/scenario/sink.(*Memory).Records": "the Memory sink's accessor",
}

// TestEveryFunctionIsLinked builds the CLI and the benchmark of record
// with inlining off and fails on any function or method declared in
// non-test Go under internal/ and cmd/ that neither binary's symbol
// table holds: code only tests reach is either wired in or deleted.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	linked := map[string]bool{}
	for _, b := range []struct{ dir, pkg, out string }{
		{root, "./cmd/meshopt", "meshopt"},
		{filepath.Join(root, "benchmark"), "repro/benchmark", "benchmark"},
	} {
		bin := filepath.Join(tmp, b.out)
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, b.pkg)
		build.Dir = b.dir
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", b.out, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr type name"; the name may itself contain spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolName(f[2])] = true
			}
		}
	}

	declared, err := declaredFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, d := range declared {
		if _, ok := reachAllow[d.sym]; ok {
			continue
		}
		if !linked[d.sym] && !linked[d.alt] {
			missing = append(missing, d.pos+": "+d.sym)
		}
	}
	for sym := range reachAllow {
		if linked[sym] {
			t.Errorf("allowlist entry %s is linked now; drop it", sym)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d functions are reached only by tests; call them from production code or delete them:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

// symbolName strips the instantiation brackets from a generic symbol
// (pkg.F[go.shape.int], pkg.(*T[go.shape.int]).M) so it matches the
// declared name.
func symbolName(s string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

type declaredFunc struct {
	sym, alt string // alt: the pointer-receiver wrapper of a value method
	pos      string
}

// declaredFuncs lists every function and method in non-test Go files
// under internal/ and cmd/ by its linker symbol: pkg.F, pkg.(*T).M,
// pkg.T.M and pkg.init.N, numbered in file-name then source order as
// the compiler does.
func declaredFuncs(root string) ([]declaredFunc, error) {
	byDir := map[string][]string{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Name() == "testdata" && d.IsDir() {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var out []declaredFunc
	fset := token.NewFileSet()
	for dir, files := range byDir {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkg := "repro/" + filepath.ToSlash(rel)
		sort.Strings(files)
		inits := 0
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if f.Name.Name == "main" {
				pkg = "main"
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				p := fset.Position(fn.Pos())
				d := declaredFunc{pos: filepath.ToSlash(rel) + "/" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)}
				switch {
				case fn.Recv != nil:
					typ, ptr := recvType(fn.Recv.List[0].Type)
					if ptr {
						d.sym = pkg + ".(*" + typ + ")." + fn.Name.Name
					} else {
						d.sym = pkg + "." + typ + "." + fn.Name.Name
						d.alt = pkg + ".(*" + typ + ")." + fn.Name.Name
					}
				case fn.Name.Name == "init":
					d.sym = pkg + ".init." + strconv.Itoa(inits)
					inits++
				default:
					d.sym = pkg + "." + fn.Name.Name
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out, nil
}

// recvType returns a receiver's base type name, without type
// parameters, and whether it is a pointer.
func recvType(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}
