package rmt

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/progen"
)

// ProgramIssue is one finding from the static ISA program verifier.
type ProgramIssue = analysis.ProgramIssue

// CheckProgram statically verifies a program in the simulator's ISA: CFG
// well-formedness (branch targets in bounds, no path off the end of the
// code image), reachability, register def-before-use, writes to the
// hardwired-zero registers, statically-derivable memory bounds and halt
// structure. A nil error means the program is well-formed; otherwise the
// error lists every issue, and Issues returns them structured.
func CheckProgram(p *isa.Program) error {
	return issuesToError(p.Name, analysis.VerifyProgram(p))
}

// CheckKernel verifies one workload kernel by name — registered or
// generated ("gen:<seed>") — returning the structured issue list (empty
// for a clean kernel). Unknown names are an error.
func CheckKernel(name string) ([]ProgramIssue, error) {
	p, err := progen.Build(name)
	if err != nil {
		return nil, err
	}
	return analysis.VerifyProgram(p), nil
}

// VulnerabilityProfile is the per-program result of the static ACE
// analysis: which fault-injection sites are provably masked, the residual
// ACE fraction, and live-register density. See analysis.AnalyzeProgram.
type VulnerabilityProfile = analysis.VulnerabilityProfile

// MaskedSite is one provably-masked injection site in a profile.
type MaskedSite = analysis.MaskedSite

// AnalyzeProgram runs the static liveness/ACE analysis over an assembled
// program and returns its vulnerability profile — the per-region masking
// information adaptive RMT schemes consume (ModeAdaptive's protection
// table). The program must pass structural verification (see
// CheckProgram).
func AnalyzeProgram(p *isa.Program) (*VulnerabilityProfile, error) {
	return analysis.AnalyzeProgram(p)
}

// AnalyzeKernel analyzes one workload kernel by name — registered or
// generated. Unknown names are an error.
func AnalyzeKernel(name string) (*VulnerabilityProfile, error) {
	p, err := progen.Build(name)
	if err != nil {
		return nil, err
	}
	prof, err := analysis.AnalyzeProgram(p)
	if err != nil {
		return nil, err
	}
	prof.Name = name
	return prof, nil
}

func issuesToError(name string, issues []ProgramIssue) error {
	if len(issues) == 0 {
		return nil
	}
	lines := make([]string, len(issues))
	for i, issue := range issues {
		lines[i] = "  " + issue.String()
	}
	return fmt.Errorf("rmt: program %q fails static verification:\n%s",
		name, strings.Join(lines, "\n"))
}
