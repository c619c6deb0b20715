package analysis

import (
	"fmt"
	"go/ast"
)

// SharedState flags package-level `var` declarations in simulation
// packages. Package state is shared by every concurrent simulation a sweep
// runs, so any of it that is written after init is a cross-run channel —
// exactly the class of bug behind the old exp.baseCache data race. All
// per-run state must hang off the Machine/run structs; the few intentional
// survivors (init-time registries, read-only lookup tables) carry an
// //rmtlint:allow sharedstate directive with a justification. Error
// sentinels (`var ErrX = errors.New(...)`) are the one built-in exemption.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "flag package-level mutable state in simulation packages",
	Run:  runSharedState,
}

// simPackages are the packages whose code executes inside (or aggregates)
// concurrent simulations. Tooling packages (runner, cliflags, analysis) are
// exempt: they hold no simulated state.
var simPackages = map[string]bool{
	ModPath + "/internal/isa":      true,
	ModPath + "/internal/vm":       true,
	ModPath + "/internal/program":  true,
	ModPath + "/internal/predict":  true,
	ModPath + "/internal/mem":      true,
	ModPath + "/internal/rmt":      true,
	ModPath + "/internal/pipeline": true,
	ModPath + "/internal/sim":      true,
	ModPath + "/internal/trace":    true,
	ModPath + "/internal/fault":    true,
	ModPath + "/internal/exp":      true,
	ModPath + "/internal/stats":    true,
	ModPath + "/internal/metrics":  true,
	ModPath + "/rmt":               true,
}

func runSharedState(p *Pass) []Diagnostic {
	if !simPackages[p.Path] {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "var" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name == "_" || isErrSentinel(name.Name, vs, i) {
						continue
					}
					out = append(out, Diagnostic{
						Pos:   p.Fset.Position(name.Pos()),
						Check: "sharedstate",
						Message: fmt.Sprintf("package-level var %s in simulation package %s: state shared across concurrent runs; move it onto the run's structs or justify with an allow directive",
							name.Name, p.Path),
					})
				}
			}
		}
	}
	return out
}

// isErrSentinel matches the `var ErrX = errors.New(...)` / fmt.Errorf idiom:
// written once at init, treated as immutable by convention.
func isErrSentinel(name string, vs *ast.ValueSpec, i int) bool {
	if len(name) < 3 || name[:3] != "Err" && name[:3] != "err" {
		return false
	}
	if i >= len(vs.Values) {
		return false
	}
	call, ok := vs.Values[i].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return (pkg.Name == "errors" && sel.Sel.Name == "New") ||
		(pkg.Name == "fmt" && sel.Sel.Name == "Errorf")
}
