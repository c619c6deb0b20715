package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Snapshot guards the machine-state snapshot layer's two contracts. First,
// repro/internal/snap is the serialization substrate every state-bearing
// package encodes through, so it must stay a dependency-free leaf: standard
// library imports only. Second, snapshot encoding must be deterministic —
// the same machine state always serializes to the same bytes, because
// fork-on-fault campaigns, the restored-run byte-identity tests and rmtd's
// content-addressed cache all compare snapshots bytewise. Go map iteration
// order is randomized, so any `range` over a map inside a snapshot
// function — one with a *snap.Stream parameter, whatever its name — is
// flagged unless it is the collect-keys idiom (append every key to a
// slice, which is then sorted before emission).
var Snapshot = &Analyzer{
	Name: "snapshot",
	Doc:  "keep the snapshot substrate stdlib-only and snapshot encoding map-order-independent",
	Run:  runSnapshot,
}

func runSnapshot(p *Pass) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     p.Fset.Position(pos),
			Check:   "snapshot",
			Message: fmt.Sprintf(format, args...),
		})
	}
	if p.Path == ModPath+"/internal/snap" {
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				dep, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep == ModPath || strings.HasPrefix(dep, ModPath+"/") || strings.Contains(strings.SplitN(dep, "/", 2)[0], ".") {
					report(spec.Pos(), "internal/snap must build from the standard library alone, not %s: every state-bearing package serializes through it", dep)
				}
			}
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || p.Info == nil || !snapEntry(p.Info.Defs[fn.Name]) {
				continue
			}
			name := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.typeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if isKeyCollect(rng) {
					return true
				}
				report(rng.Pos(), "map iteration in %s: snapshot encoding must not depend on map order — collect the keys, sort, then emit", name)
				return true
			})
		}
	}
	return out
}

// isKeyCollect recognises the one map range an encoder may contain: keys
// appended to a slice (to be sorted afterwards), values untouched, e.g.
//
//	for pn := range m.pages {
//		keys = append(keys, pn)
//	}
func isKeyCollect(rng *ast.RangeStmt) bool {
	if rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}
