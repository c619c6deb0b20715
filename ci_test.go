package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps the Makefile and the CI workflow
// honest: every alternative of every -run and -fuzz pattern on a `go test`
// command line must match a Test or Fuzz function of the module. go test
// reports a pattern that matches nothing as "no tests to run" and passes,
// so a deleted or renamed test would otherwise leave a CI step that checks
// nothing. '^$' (run no tests) is the one pattern meant to match none.
func TestCIRunPatternsMatchTests(t *testing.T) {
	names := moduleTestNames(t)
	checked := 0
	for _, file := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, pat := range runPatterns(line) {
				for _, alt := range strings.Split(pat, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: pattern %q: %v", file, i+1, alt, err)
						continue
					}
					checked++
					if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("%s:%d: %q matches no Test or Fuzz function in the module", file, i+1, alt)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern; the command-line parsing is broken")
	}
}

// runPatterns returns the -run and -fuzz patterns of a line that runs
// `go test`, with the Makefile's $$ unescaped and '^$' left out. Comment
// lines return none.
func runPatterns(line string) []string {
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "#") {
		return nil
	}
	_, cmd, ok := strings.Cut(line, "go test ")
	if !ok {
		return nil
	}
	var pats []string
	fields := strings.Fields(cmd)
	for i, f := range fields {
		var pat string
		switch {
		case (f == "-run" || f == "-fuzz") && i+1 < len(fields):
			pat = fields[i+1]
		case strings.HasPrefix(f, "-run="), strings.HasPrefix(f, "-fuzz="):
			_, pat, _ = strings.Cut(f, "=")
		default:
			continue
		}
		pat = strings.ReplaceAll(strings.Trim(pat, `'"`), "$$", "$")
		if pat != "^$" {
			pats = append(pats, pat)
		}
	}
	return pats
}

// moduleTestNames lists the Test and Fuzz functions declared in the
// module's test files, leaving out nested modules and build output.
func moduleTestNames(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") {
				names = append(names, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
