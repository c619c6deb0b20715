package sim

import "fmt"

// Mode selects the machine organisation.
type Mode int

// Machine organisations. Each one is described once, by its row in
// modeTable; adding a mode means one constant, one row and its
// construction in Build.
const (
	// ModeBase is the unprotected base SMT processor: one hardware thread
	// per logical program.
	ModeBase Mode = iota
	// ModeBase2 runs two independent copies of each program as separate
	// hardware threads with no input replication or output comparison
	// (Figure 6's "Base2" reference point).
	ModeBase2
	// ModeSRT runs each program as a leading/trailing redundant pair on
	// one core.
	ModeSRT
	// ModeLockstep models two cycle-synchronised cores with a central
	// checker. Because the two lockstepped cores are cycle-identical by
	// construction, the model simulates one core and charges the checker
	// interposition penalties (cache-miss path and store-exit path); see
	// DESIGN.md.
	ModeLockstep
	// ModeCRT runs leading and trailing copies on different cores of a
	// two-way CMP, cross-coupled for multiprogram workloads (Figure 5).
	ModeCRT
	// ModeSRTR extends SRT with recovery (after Vijaykumar et al.'s SRTR):
	// every retired register result is cross-checked through a register
	// value queue, machine state is checkpointed at a fixed cycle interval,
	// and a checkpoint becomes a valid rollback target once the trailing
	// copy has validated everything it captured. On detection the machine
	// rolls back and re-executes instead of halting.
	ModeSRTR
	// ModeAdaptive is SRT with partial redundancy: a static per-PC
	// protection table derived from the ACE/liveness vulnerability profile
	// gates which instructions enter the sphere of replication. Low-
	// vulnerability regions run untagged (no LVQ/comparator traffic — the
	// slack this buys is the point), trading detection coverage there.
	ModeAdaptive
)

// knob is a set of the Spec fields that only some modes read.
type knob uint8

const (
	knobCheckerLatency knob = 1 << iota
	knobAdaptiveThreshold
	knobCheckpointInterval
)

// modeInfo is one row of the mode table.
type modeInfo struct {
	// name spells the mode in flags, wire bodies and reports.
	name string
	// paired modes run each program as a leading/trailing pair; a fault
	// campaign needs one so it can strike a single copy. Lockstep is
	// redundant in the paper but not paired here: the model simulates
	// one of its two cycle-identical cores.
	paired bool
	// knobs are the mode-specific Spec fields the mode reads.
	knobs knob
}

// modeTable defines every mode, indexed by Mode. Names, parsing, campaign
// gating and spec canonicalisation (and so rmtd's cache keys) all derive
// from it.
//
//rmtlint:allow sharedstate — read-only mode table, written by no one
var modeTable = [...]modeInfo{
	ModeBase:     {name: "base"},
	ModeBase2:    {name: "base2"},
	ModeSRT:      {name: "srt", paired: true},
	ModeLockstep: {name: "lockstep", knobs: knobCheckerLatency},
	ModeCRT:      {name: "crt", paired: true},
	ModeSRTR:     {name: "srtr", paired: true, knobs: knobCheckpointInterval},
	ModeAdaptive: {name: "adaptive", paired: true, knobs: knobAdaptiveThreshold},
}

// info returns m's table row; a mode outside the table reads as an
// unnamed, unpaired mode with no knobs.
func (m Mode) info() modeInfo {
	if m < 0 || int(m) >= len(modeTable) {
		return modeInfo{name: "mode?"}
	}
	return modeTable[m]
}

func (m Mode) String() string { return m.info().name }

// Paired reports whether the mode runs each program as a leading/trailing
// pair, the precondition for a fault campaign.
func (m Mode) Paired() bool { return m.info().paired }

// Modes returns every machine organisation, in table order.
func Modes() []Mode {
	ms := make([]Mode, len(modeTable))
	for i := range ms {
		ms[i] = Mode(i)
	}
	return ms
}

// ParseMode maps a mode name to its Mode: the inverse of String.
func ParseMode(s string) (Mode, error) {
	for i, row := range modeTable {
		if row.name == s {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want one of %v)", s, Modes())
}

// Canonical returns s with every mode-specific knob its mode does not read
// zeroed. Specs with equal canonical forms simulate the same machine.
func (s Spec) Canonical() Spec {
	k := s.Mode.info().knobs
	if k&knobCheckerLatency == 0 {
		s.CheckerLatency = 0
	}
	if k&knobAdaptiveThreshold == 0 {
		s.AdaptiveThreshold = 0
	}
	if k&knobCheckpointInterval == 0 {
		s.CheckpointInterval = 0
	}
	return s
}
