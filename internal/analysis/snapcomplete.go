package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Snapcomplete guards the snapshot layer's completeness: a struct that
// participates in machine-state serialization must account for every one of
// its fields, or a field added later silently breaks the restored-run
// byte-identity invariant (the restored machine carries a stale value the
// snapshot never saw). Each structure's format is one function over a
// *snap.Stream that both encodes and decodes, so one field list is the
// whole contract. The analyzer:
//
//  1. finds the package's serialization entry points — functions with a
//     *snap.Stream parameter (a function that builds its own Stream, such
//     as a digest over part of the state, is not one);
//  2. closes them over the package-local call graph, so helpers like
//     enumerate or instQueues contribute their field accesses;
//  3. takes as subjects the package-local structs appearing as a receiver
//     or parameter of an entry point;
//  4. requires every subject field to be referenced somewhere in that
//     closure, or to carry a //rmtsnap:skip directive on or above the field
//     declaring it deliberately outside the snapshot (hooks, config
//     pointers, scratch state).
//
// The check is syntactic and one-sided: a referenced field is not proven
// serialized, but an unreferenced one is proven forgotten — which is
// exactly the added-field hazard. Structs serialized from another package
// (e.g. stats.ThreadStats visited by pipeline's snapThreadStats) are
// outside the contract: the analyzer sees one package at a time.
var Snapcomplete = &Analyzer{
	Name: "snapcomplete",
	Doc:  "every struct a snapshot function visits accounts for all its fields, or skips them explicitly",
	Run:  runSnapcomplete,
}

// snapEntry reports whether the function takes a *snap.Stream: a
// structure's one snapshot function, encoding and decoding alike.
func snapEntry(fn types.Object) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		pt, ok := sig.Params().At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := pt.Elem().(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == ModPath+"/internal/snap" && obj.Name() == "Stream" {
				return true
			}
		}
	}
	return false
}

func runSnapcomplete(p *Pass) []Diagnostic {
	if p.Pkg == nil || p.Info == nil || p.Path == ModPath+"/internal/snap" {
		return nil // the substrate itself has no snapshot contract
	}
	// localStruct resolves t (through one pointer) to a package-local named
	// struct's TypeName, or nil.
	localStruct := func(t types.Type) *types.TypeName {
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != p.Pkg {
			return nil
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			return nil
		}
		return named.Obj()
	}

	// Pass 1 over every function: find entry points, record the
	// package-local call graph and per-function field references.
	fns := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					fns[obj] = fd
				}
			}
		}
	}
	var seeds []types.Object
	calls := make(map[types.Object][]types.Object)
	fieldRefs := make(map[types.Object][]*types.Var)
	for obj, fd := range fns {
		if snapEntry(obj) {
			seeds = append(seeds, obj)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch o := p.Info.Uses[id].(type) {
			case *types.Var:
				if o.IsField() {
					fieldRefs[obj] = append(fieldRefs[obj], o)
				}
			case *types.Func:
				if _, local := fns[o]; local {
					calls[obj] = append(calls[obj], o)
				}
			}
			return true
		})
	}

	// Coverage: every field referenced anywhere in the entry points'
	// closure.
	covered := make(map[*types.Var]bool)
	seen := make(map[types.Object]bool)
	for stack := append([]types.Object(nil), seeds...); len(stack) > 0; {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		for _, v := range fieldRefs[fn] {
			covered[v] = true
		}
		stack = append(stack, calls[fn]...)
	}

	// Subjects: package-local structs an entry point visits directly, via
	// its receiver or a parameter.
	subject := make(map[*types.TypeName]bool)
	for _, fn := range seeds {
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			if tn := localStruct(recv.Type()); tn != nil {
				subject[tn] = true
			}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if tn := localStruct(sig.Params().At(i).Type()); tn != nil {
				subject[tn] = true
			}
		}
	}

	// Walk struct declarations in source order (not subject-map order) so
	// findings emerge deterministically.
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || !subject[tn] {
					continue
				}
				st := tn.Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					field := st.Field(i)
					if field.Name() == "_" || covered[field] {
						continue
					}
					pos := p.Fset.Position(field.Pos())
					if p.snapSkipped(pos) {
						continue
					}
					out = append(out, Diagnostic{
						Pos:   pos,
						Check: "snapcomplete",
						Message: fmt.Sprintf("field %s.%s is not referenced by the snapshot functions: visit it or mark it //rmtsnap:skip",
							tn.Name(), field.Name()),
					})
				}
			}
		}
	}
	return out
}
