package analysis

import (
	"fmt"

	"repro/internal/isa"
)

// This file is the ACE analysis: a static classification of every
// fault-injection site in a program as provably masked or potentially ACE
// (Architecturally Correct Execution — a bit that can change the program's
// observable behaviour, after Mukherjee et al.'s AVF methodology). The
// campaign fault model (internal/fault) injects at four dataflow points;
// statically they collapse to two kinds of site per instruction:
//
//   - a destination-register site (PointResult, and PointLoadValue on
//     loads): the corrupted value lands in the destination register. If
//     liveness proves the destination dead at that pc — or the pc is
//     unreachable, or the destination is hardwired zero — no consumer can
//     ever observe the flip, so the site is provably masked.
//   - a store site (PointStoreData / PointStoreAddr): the corrupted value
//     crosses the sphere-of-replication boundary into the store comparator,
//     which is exactly the detection mechanism. Store sites are always
//     potentially ACE (detection-ACE) unless the store is unreachable.
//
// The classification is bit-agnostic and deliberately one-sided: "masked"
// is a proof, "ACE" is an over-approximation. ModeAdaptive's protection
// table consumes it; internal/fault's cross-validation tests check every
// campaign trial that fires at a masked site replays as masked.

// Masking reasons recorded in MaskedSite.Reason.
const (
	// MaskedZeroReg: the destination is hardwired R31/F31; the register
	// file discards the write (the JSR/JMP discarded-link idiom).
	MaskedZeroReg = "zero-reg"
	// MaskedNeverRead: no reachable instruction reads the destination
	// register at all.
	MaskedNeverRead = "never-read"
	// MaskedOverwritten: the destination is read somewhere, but every path
	// from this pc overwrites it before any read.
	MaskedOverwritten = "overwritten-before-use"
	// MaskedUnreachable: the instruction can never execute.
	MaskedUnreachable = "unreachable"
)

// MaskedSite is one provably-masked destination-register injection site.
type MaskedSite struct {
	// PC is the instruction address of the site.
	PC int `json:"pc"`
	// Reg names the destination register ("r7", "f3").
	Reg string `json:"reg"`
	// Reason is one of the Masked* constants.
	Reason string `json:"reason"`
	// Instr is the instruction's disassembly, for human-readable profiles.
	Instr string `json:"instr"`
}

// VulnerabilityProfile is the per-program result of the ACE analysis.
type VulnerabilityProfile struct {
	// Name is the kernel name when analyzed through the registry ("" for
	// ad-hoc programs).
	Name string `json:"name,omitempty"`
	// Instructions is the static code size.
	Instructions int `json:"instructions"`
	// Reachable counts instructions reachable from the entry (plus
	// interrupt handler and statically-visible indirect targets).
	Reachable int `json:"reachable"`
	// RegSites counts destination-register injection sites: one per
	// instruction with a non-store destination (loads, ALU/FP ops, JSR/JMP
	// links), reachable or not.
	RegSites int `json:"reg_sites"`
	// StoreSites counts store injection sites: two per store instruction
	// (data and address), reachable or not.
	StoreSites int `json:"store_sites"`
	// MaskedSites lists every provably-masked destination-register site.
	MaskedSites []MaskedSite `json:"masked_sites,omitempty"`
	// MaskedStoreSites counts masked store sites (unreachable stores only:
	// reachable stores always face the comparator).
	MaskedStoreSites int `json:"masked_store_sites"`
	// ACEFraction is the fraction of all injection sites not provably
	// masked: 1 - (len(MaskedSites)+MaskedStoreSites)/(RegSites+StoreSites).
	ACEFraction float64 `json:"ace_fraction"`
	// LiveRegDensity is the mean number of live registers on entry to a
	// reachable instruction — how much architectural state a random strike
	// at a random point could land in.
	LiveRegDensity float64 `json:"live_reg_density"`
	// DeadStores lists reachable stores whose written bytes are provably
	// overwritten before any read (informational: still detection-ACE, see
	// MemLiveness).
	DeadStores []int `json:"dead_stores,omitempty"`
	// Conservative is set when an interrupt handler forces the analysis to
	// assume every register live everywhere; no site is then provably
	// masked except unreachable and zero-reg ones.
	Conservative bool `json:"conservative,omitempty"`
	// LiveIn holds the per-pc live-register count on entry (0 for
	// unreachable pcs) — the raw series behind LiveRegDensity. Excluded
	// from the JSON profile: consumers that need per-pc vulnerability
	// (the adaptive-redundancy protection table) read it in-process.
	LiveIn []int `json:"-"`
}

// DestMasked reports whether the destination-register site at pc is
// provably masked. Store-point sites are never masked through this query.
func (v *VulnerabilityProfile) DestMasked(pc int) bool {
	for _, s := range v.MaskedSites {
		if s.PC == pc {
			return true
		}
	}
	return false
}

// AnalyzeProgram runs the liveness and ACE analyses over an assembled
// program and returns its vulnerability profile. The program must pass the
// verifier's structural checks (encoding, entry, branch bounds) — a broken
// CFG proves nothing — but non-structural findings (use-before-def,
// mem-bounds) do not block analysis.
func AnalyzeProgram(p *isa.Program) (*VulnerabilityProfile, error) {
	for _, issue := range VerifyProgram(p) {
		switch issue.Check {
		case "encode", "entry", "branch-bounds":
			return nil, fmt.Errorf("analysis: program %q fails structural verification: %v", p.Name, issue)
		}
	}
	cfg := buildCFG(p)
	reach := reachable(p, cfg)
	lv := computeLiveness(p, cfg)
	ml := computeMemLiveness(p, cfg, reach)

	prof := &VulnerabilityProfile{
		Instructions: len(p.Code),
		DeadStores:   ml.DeadStores,
		Conservative: lv.Conservative,
	}

	// everRead: registers some reachable instruction reads — the cheap
	// global screen that separates never-read from overwritten-before-use.
	var everRead regBits
	for pc, ins := range p.Code {
		if reach[pc] {
			prof.Reachable++
			everRead |= useBits(ins)
		}
	}

	var liveSum int
	prof.LiveIn = make([]int, len(p.Code))
	for pc, ins := range p.Code {
		if reach[pc] {
			prof.LiveIn[pc] = lv.In[pc].Count()
			liveSum += prof.LiveIn[pc]
		}
		if ins.IsStore() {
			prof.StoreSites += 2
			if !reach[pc] {
				prof.MaskedStoreSites += 2
			}
			continue
		}
		if !ins.HasDest() {
			continue
		}
		prof.RegSites++
		name := fmt.Sprintf("r%d", ins.Rd)
		bit := intBit << ins.Rd
		if ins.DestIsFP() {
			name = fmt.Sprintf("f%d", ins.Rd)
			bit = fpBit << ins.Rd
		}
		mask := func(reason string) {
			prof.MaskedSites = append(prof.MaskedSites, MaskedSite{
				PC: pc, Reg: name, Reason: reason, Instr: ins.String(),
			})
		}
		switch {
		case !reach[pc]:
			mask(MaskedUnreachable)
		case ins.DestDiscarded():
			mask(MaskedZeroReg)
		case lv.Conservative:
			// Nothing further provable.
		case everRead&bit == 0:
			mask(MaskedNeverRead)
		case regBits(lv.Out[pc])&bit == 0:
			mask(MaskedOverwritten)
		}
	}
	if prof.Reachable > 0 {
		prof.LiveRegDensity = float64(liveSum) / float64(prof.Reachable)
	}
	if total := prof.RegSites + prof.StoreSites; total > 0 {
		prof.ACEFraction = 1 - float64(len(prof.MaskedSites)+prof.MaskedStoreSites)/float64(total)
	}
	return prof, nil
}
