package analysis

import (
	"strings"
	"testing"
)

// loadFixture type-checks one fixture package and returns its Pass, without
// running any analyzer, so tests can drive RunAnalyzers and StaleDirectives
// separately.
func loadFixture(t *testing.T, path, src string) *Pass {
	t.Helper()
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	pass, err := l.LoadSource(path, map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatal(err)
	}
	return pass
}

// The known-bad fixture: Regs is visited by the snapshot function, Cycles
// only by a method outside it, Scratch nowhere. Fixtures live in
// repro/internal/vm so the snap import is layering-legal.
const snapFixtureMissing = `
package vm

import "repro/internal/snap"

type Core struct {
	Regs    [4]uint64
	Cycles  uint64
	Scratch int
}

func (c *Core) Snap(s *snap.Stream) {
	for i := range c.Regs {
		s.U64(&c.Regs[i])
	}
}

func (c *Core) Tick() { c.Cycles++ }
`

func TestSnapcompleteMissingField(t *testing.T) {
	diags := runOn(t, "repro/internal/vm", snapFixtureMissing)
	if !hasDiag(diags, "snapcomplete", "field Core.Scratch is not referenced by the snapshot functions") {
		t.Errorf("want Scratch finding, got %v", diags)
	}
	if !hasDiag(diags, "snapcomplete", "field Core.Cycles is not referenced by the snapshot functions") {
		t.Errorf("want Cycles finding: a reference outside the snapshot functions does not count, got %v", diags)
	}
	if hasDiag(diags, "snapcomplete", "Core.Regs") {
		t.Errorf("Regs is visited, got %v", diags)
	}
}

func TestSnapcompleteSkipDirective(t *testing.T) {
	src := strings.Replace(snapFixtureMissing,
		"Cycles  uint64", "Cycles  uint64 //rmtsnap:skip — fixture", 1)
	src = strings.Replace(src,
		"Scratch int", "Scratch int //rmtsnap:skip — fixture", 1)
	diags := runOn(t, "repro/internal/vm", src)
	if hasDiag(diags, "snapcomplete", "") {
		t.Errorf("skip directives did not suppress: %v", diags)
	}
}

// A field referenced only through a package-local helper still counts: the
// analyzer closes over the call graph, so regs carries the Regs coverage.
func TestSnapcompleteHelperClosure(t *testing.T) {
	diags := runOn(t, "repro/internal/vm", `
package vm

import "repro/internal/snap"

type Core struct {
	Regs  [4]uint64
	Saved uint64
}

func (c *Core) regs() []uint64 { return c.Regs[:] }

func (c *Core) Snap(s *snap.Stream) {
	regs := c.regs()
	for i := range regs {
		s.U64(&regs[i])
	}
	s.U64(&c.Saved)
}
`)
	if hasDiag(diags, "snapcomplete", "") {
		t.Errorf("helper-covered fields flagged: %v", diags)
	}
}

// A function that builds its own Stream — a digest over part of the state,
// as sim's ArchDigest is — is not a snapshot entry point, so its receiver
// is not a subject.
func TestSnapcompleteEncodeOnlyNotASubject(t *testing.T) {
	diags := runOn(t, "repro/internal/vm", `
package vm

import "repro/internal/snap"

type Report struct {
	Cycles uint64
	Label  string
}

func (rep *Report) Digest() []byte {
	s := snap.NewEncoder(nil)
	s.U64(&rep.Cycles)
	return s.Finish()
}
`)
	if hasDiag(diags, "snapcomplete", "") {
		t.Errorf("digest receiver flagged: %v", diags)
	}
}

// Without the exemption codecState.off would be a finding: save takes the
// package's own Stream.
func TestSnapcompleteSnapPackageExempt(t *testing.T) {
	diags := runOn(t, "repro/internal/snap", `
package snap

type Stream struct{ buf []byte }

type codecState struct {
	buf []byte
	off int
}

func (c *codecState) save(s *Stream) { s.buf = append(s.buf, c.buf...) }
`)
	if hasDiag(diags, "snapcomplete", "") {
		t.Errorf("snap package must be exempt from its own contract: %v", diags)
	}
}

// A //rmtsnap:skip on a fully-serialized field suppresses nothing and must
// surface as stale once the suite has run.
func TestStaleSnapSkipDirective(t *testing.T) {
	src := strings.Replace(snapFixtureMissing,
		"Regs    [4]uint64", "Regs    [4]uint64 //rmtsnap:skip — stale: the loop below covers it", 1)
	src = strings.Replace(src,
		"Cycles  uint64", "Cycles  uint64 //rmtsnap:skip — fixture", 1)
	src = strings.Replace(src,
		"Scratch int", "Scratch int //rmtsnap:skip — fixture", 1)
	pass := loadFixture(t, "repro/internal/vm", src)
	if diags := RunAnalyzers(pass, Analyzers()); len(diags) != 0 {
		t.Fatalf("fixture should be finding-free with skips in place: %v", diags)
	}
	stale := pass.StaleDirectives()
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "rmtsnap:skip") {
		t.Fatalf("want exactly the Regs skip reported stale, got %v", stale)
	}
}

func TestStaleAllowDirective(t *testing.T) {
	pass := loadFixture(t, "repro/internal/sim", `
package sim

func pure(x int) int {
	return x + 1 //rmtlint:allow determinism — nothing here to allow
}
`)
	if diags := RunAnalyzers(pass, Analyzers()); len(diags) != 0 {
		t.Fatalf("fixture should be finding-free: %v", diags)
	}
	stale := pass.StaleDirectives()
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "rmtlint:allow determinism") {
		t.Fatalf("want the unused allow reported stale, got %v", stale)
	}
}

// A consumed directive is not stale.
func TestUsedDirectiveNotStale(t *testing.T) {
	pass := loadFixture(t, "repro/internal/sim", `
package sim

import "time"

func stamp() int64 {
	return time.Now().UnixNano() //rmtlint:allow determinism — test fixture
}
`)
	if diags := RunAnalyzers(pass, Analyzers()); len(diags) != 0 {
		t.Fatalf("allow should suppress the finding: %v", diags)
	}
	if stale := pass.StaleDirectives(); len(stale) != 0 {
		t.Fatalf("consumed directive reported stale: %v", stale)
	}
}
