package analysis

import "testing"

func TestSnapshotFlagsMapRangeInEncoder(t *testing.T) {
	diags := runOn(t, "repro/internal/vm", `
package vm

import "repro/internal/snap"

type M struct{ pages map[uint64]uint64 }

func (m *M) encodePages(s *snap.Stream) {
	for pn, pg := range m.pages {
		s.U64(&pn)
		s.U64(&pg)
	}
}
`)
	if !hasDiag(diags, "snapshot", "map order") {
		t.Fatalf("want map-order finding, got %v", diags)
	}
}

func TestSnapshotAllowsKeyCollectIdiom(t *testing.T) {
	diags := runOn(t, "repro/internal/vm", `
package vm

import (
	"sort"

	"repro/internal/snap"
)

type M struct{ pages map[uint64]uint64 }

func (m *M) Snap(s *snap.Stream) {
	keys := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		keys = append(keys, pn)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, pn := range keys {
		pg := m.pages[pn]
		s.U64(&pn)
		s.U64(&pg)
	}
}
`)
	if hasDiag(diags, "snapshot", "map order") {
		t.Fatalf("key-collect idiom was flagged: %v", diags)
	}
}

func TestSnapshotIgnoresMapRangeOutsideEncoders(t *testing.T) {
	diags := runOn(t, "repro/internal/vm", `
package vm

type M struct{ pages map[uint64][]byte }

func (m *M) bytes() int {
	n := 0
	for _, pg := range m.pages {
		n += len(pg)
	}
	return n
}
`)
	if hasDiag(diags, "snapshot", "map order") {
		t.Fatalf("non-encoder map range was flagged: %v", diags)
	}
}

func TestSnapshotSubstrateMustStayStdlibOnly(t *testing.T) {
	diags := runOn(t, "repro/internal/snap", `
package snap

import "repro/internal/isa" //rmtlint:allow layering — fixture exercises the snapshot check

var _ = isa.Instr{}
`)
	if !hasDiag(diags, "snapshot", "standard library alone") {
		t.Fatalf("want stdlib-only finding, got %v", diags)
	}
}

// TestSnapshotCleanOnRealSnapPackage: the real substrate passes its own
// gate.
func TestSnapshotCleanOnRealSnapPackage(t *testing.T) {
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	pass, err := l.Load("repro/internal/snap")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pass, []*Analyzer{Snapshot}); len(diags) != 0 {
		t.Fatalf("internal/snap has snapshot findings: %v", diags)
	}
}
