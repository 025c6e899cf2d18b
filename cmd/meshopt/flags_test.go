package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobAllow names the flags and environment variables that neither
// scripts/ci.sh nor a test in this package passes. Every entry names the
// test that covers the option behind it.
var knobAllow = map[string]string{
	"-job-ttl":         "serve.Options.JobTTL: TestJobTTLEvictsTerminalJobs in internal/serve",
	"-cache-max-bytes": "serve.Options.CacheMaxBytes: the TestCacheQuota*/TestServerQuota* tests in internal/serve/quota_test.go",
	"-slots":           "serve.Options.Slots is handed to dist.Options.Slots: TestCoordByteIdenticalAcrossSlotCounts in internal/dist",
	"-metrics-addr":    "obs.Sidecar: TestSidecarServesMetricsAndPprof in internal/obs",
}

// dupAllow names the flags declared at more than one call site.
var dupAllow = map[string]string{
	"-addr": "serve's listen address beside the clients' server URL (newFlags): both name the one endpoint",
}

// flagDeclMethods are the flag.FlagSet methods that declare a flag,
// mapped to the argument index of the flag's name.
var flagDeclMethods = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0, "Func": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1, "BoolFunc": 0,
}

var envVarPattern = regexp.MustCompile(`MESHOPT_[A-Z0-9_]+`)

// TestEveryKnobIsExercised parses the command's non-test Go and fails
// when a flag name is declared at more than one call site, or when a
// flag or a MESHOPT_* environment variable read anywhere under internal/
// or cmd/ is passed by neither scripts/ci.sh nor a test string literal
// in this package. A knob nothing exercises is either covered or
// deleted; the allowlists above say why each exception stays.
func TestEveryKnobIsExercised(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string][]string{} // "-name" -> declaration sites
	env := map[string]string{}     // "MESHOPT_X" -> first site
	exercised := map[string]bool{}
	fset := token.NewFileSet()
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			isTest := strings.HasSuffix(path, "_test.go")
			inCmd := filepath.Dir(path) == filepath.Join(root, "cmd", "meshopt")
			if inCmd && filepath.Base(path) == "flags_test.go" {
				return nil // its allowlists name knobs without passing them
			}
			imports := map[string]bool{}
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name := filepath.Base(p)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if n.Kind != token.STRING {
						break
					}
					s, err := strconv.Unquote(n.Value)
					if err != nil {
						break
					}
					switch {
					case isTest && inCmd:
						for _, tok := range strings.Fields(s) {
							exercised[tok] = true
						}
					case !isTest:
						for _, v := range envVarPattern.FindAllString(s, -1) {
							if _, ok := env[v]; !ok {
								env[v] = fset.Position(n.Pos()).String()
							}
						}
					}
				case *ast.CallExpr:
					if isTest || !inCmd {
						break
					}
					if name, ok := declaredFlag(n, imports); ok {
						p := fset.Position(n.Pos())
						decls["-"+name] = append(decls["-"+name], filepath.Base(p.Filename)+":"+strconv.Itoa(p.Line))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ci, err := os.ReadFile(filepath.Join(root, "scripts", "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range strings.Fields(string(ci)) {
		exercised[tok] = true
	}
	// A token passes a flag as "-name" or "-name=v", and sets an
	// environment variable as "NAME=v".
	for tok := range exercised {
		if i := strings.IndexByte(tok, '='); i > 0 {
			exercised[tok[:i]] = true
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no flag declarations: the parser no longer matches how flags are declared")
	}

	var problems []string
	for name, sites := range decls {
		if len(sites) > 1 && dupAllow[name] == "" {
			problems = append(problems, name+" is declared at "+strings.Join(sites, ", ")+": declare it once, in newFlags")
		}
	}
	knobs := map[string]bool{}
	for name := range decls {
		knobs[name] = true
	}
	for v := range env {
		knobs[v] = true
	}
	for knob := range knobs {
		switch _, allowed := knobAllow[knob]; {
		case exercised[knob] && allowed:
			problems = append(problems, "allowlist entry "+knob+" is exercised now; drop it")
		case !exercised[knob] && !allowed:
			problems = append(problems, knob+" is passed by neither scripts/ci.sh nor a cmd/meshopt test: exercise it or delete it")
		}
	}
	for knob := range knobAllow {
		if !knobs[knob] {
			problems = append(problems, "allowlist entry "+knob+" names no flag or variable; drop it")
		}
	}
	for name := range dupAllow {
		if len(decls[name]) < 2 {
			problems = append(problems, "duplicate allowlist entry "+name+" is declared once now; drop it")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// declaredFlag reports the flag name a call declares when it is a
// FlagSet declaration method with a literal name. A call on an imported
// package other than flag (span.Int, say) is not a declaration.
func declaredFlag(call *ast.CallExpr, imports map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] && x.Name != "flag" {
		return "", false
	}
	i, ok := flagDeclMethods[sel.Sel.Name]
	if !ok || len(call.Args) <= i {
		return "", false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}
