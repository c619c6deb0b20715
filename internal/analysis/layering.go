package analysis

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// Layering enforces the import DAG DESIGN.md draws for the simulator:
//
//	layer 0  isa, stats, runner, metrics, snap (leaves: no repro imports)
//	layer 1  vm, program, predict, mem, rmt (branch/LVQ/SQ queues), analysis
//	layer 2  pipeline; progen (generated workloads: builds on vm for
//	         characterisation replay and falls through to program for
//	         registry names)
//	layer 3  trace, vmdiff (batch-vs-scalar differential harness:
//	         drives vm batches against scalar oracles over progen
//	         corpora)
//	layer 4  sim (assembles machines and wires trace/metrics observability)
//	layer 5  fault, cliflags
//	layer 6  exp
//	layer 7  rmt facade (and the repro doc package)
//	layer 8  server (rmtd's serving layer: sits above the facade and
//	         calls rmt.Run/rmt.Sweep so served results are the facade's)
//
// A package may import only packages on a strictly lower layer, so cycles
// and layer-skipping back-edges are impossible by construction. cmd/ and
// examples/ binaries sit above everything but are restricted to the public
// facade (repro/rmt) plus repro/internal/cliflags; a binary that must reach
// internal machinery the facade does not expose carries an
// //rmtlint:allow layering directive on the import line stating why.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the package import DAG",
	Run:  runLayering,
}

// ModPath is the module path the layer map below is keyed under.
const ModPath = "repro"

// layerOf assigns every first-party package its layer. Packages absent from
// the map are flagged: growing the tree means placing new packages in the
// DAG deliberately.
var layerOf = map[string]int{
	ModPath:                        7,
	ModPath + "/internal/isa":      0,
	ModPath + "/internal/ringq":    0,
	ModPath + "/internal/stats":    0,
	ModPath + "/internal/runner":   0,
	ModPath + "/internal/metrics":  0,
	ModPath + "/internal/snap":     0,
	ModPath + "/internal/vm":       1,
	ModPath + "/internal/program":  1,
	ModPath + "/internal/predict":  1,
	ModPath + "/internal/mem":      1,
	ModPath + "/internal/rmt":      1,
	ModPath + "/internal/analysis": 1,
	ModPath + "/internal/pipeline": 2,
	ModPath + "/internal/progen":   2,
	ModPath + "/internal/trace":    3,
	ModPath + "/internal/vmdiff":   3,
	ModPath + "/internal/sim":      4,
	ModPath + "/internal/fault":    5,
	ModPath + "/internal/cliflags": 5,
	ModPath + "/internal/exp":      6,
	ModPath + "/rmt":               7,
	ModPath + "/internal/server":   8,
}

// binaryAllowed is the import set open to cmd/ and examples/ packages.
var binaryAllowed = map[string]bool{
	ModPath + "/rmt":               true,
	ModPath + "/internal/cliflags": true,
}

func isBinaryPath(path string) bool {
	return strings.HasPrefix(path, ModPath+"/cmd/") ||
		strings.HasPrefix(path, ModPath+"/examples/")
}

func runLayering(p *Pass) []Diagnostic {
	var out []Diagnostic
	report := func(spec *ast.ImportSpec, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     p.Fset.Position(spec.Pos()),
			Check:   "layering",
			Message: fmt.Sprintf(format, args...),
		})
	}
	selfBinary := isBinaryPath(p.Path)
	selfLayer, selfKnown := layerOf[p.Path]
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			dep, err := strconv.Unquote(spec.Path.Value)
			if err != nil || (dep != ModPath && !strings.HasPrefix(dep, ModPath+"/")) {
				continue // stdlib: out of scope
			}
			if isBinaryPath(dep) {
				report(spec, "import of binary package %s: binaries are leaves of the DAG", dep)
				continue
			}
			depLayer, depKnown := layerOf[dep]
			if !depKnown {
				report(spec, "import of %s, which has no layer assignment: add it to the layer map in internal/analysis/layering.go", dep)
				continue
			}
			if selfBinary {
				if !binaryAllowed[dep] {
					report(spec, "%s may import only the rmt facade and cliflags, not %s (layer %d): expose what it needs through the facade or justify with an allow directive", p.Path, dep, depLayer)
				}
				continue
			}
			if !selfKnown {
				report(spec, "package %s has no layer assignment: add it to the layer map in internal/analysis/layering.go", p.Path)
				continue
			}
			if depLayer >= selfLayer {
				report(spec, "%s (layer %d) may not import %s (layer %d): imports must point strictly down the DAG", p.Path, selfLayer, dep, depLayer)
			}
		}
	}
	return out
}
