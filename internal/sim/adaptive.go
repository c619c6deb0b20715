package sim

import (
	"crypto/sha256"

	"repro/internal/analysis"
	"repro/internal/progen"
	"repro/internal/snap"
	"repro/internal/vm"
)

// adaptiveTable derives the per-PC protection table for ModeAdaptive from
// the program's static vulnerability profile: an instruction is protected
// (inside the sphere of replication) iff its destination site is not
// provably masked and its live-in register count, normalised by the
// program's maximum, reaches the threshold θ. θ <= 0 returns a nil table,
// which protects everything — bit-identical to plain SRT, the anchor
// point of the coverage/slowdown frontier.
func adaptiveTable(name string, threshold float64) ([]bool, error) {
	if threshold <= 0 {
		return nil, nil
	}
	prog, err := progen.Build(name)
	if err != nil {
		return nil, err
	}
	prof, err := analysis.AnalyzeProgram(prog)
	if err != nil {
		return nil, err
	}
	maxLive := 1
	for _, v := range prof.LiveIn {
		if v > maxLive {
			maxLive = v
		}
	}
	tbl := make([]bool, len(prog.Code))
	for pc := range tbl {
		frac := float64(prof.LiveIn[pc]) / float64(maxLive)
		tbl[pc] = !prof.DestMasked(pc) && frac >= threshold
	}
	return tbl, nil
}

// ArchDigest hashes the machine's committed architectural outcome: per
// logical program the measured copy's halt/trap disposition, each distinct
// committed memory image, and each pseudo-device's state. Registers are
// deliberately excluded — a flip confined to a register that never reaches
// committed memory or a device is not architecturally observable, which is
// exactly the masked/SDC boundary the adaptive campaigns classify against.
func (m *Machine) ArchDigest() [32]byte {
	s := snap.NewEncoder(make([]byte, 0, 1<<16))
	seen := make(map[*vm.Memory]bool, len(m.Leads))
	for _, lead := range m.Leads {
		s.Bool(&lead.Arch.Halted)
		s.Bool(&lead.Arch.Trapped)
		mem := lead.Arch.Mem.Backing()
		if !seen[mem] {
			seen[mem] = true
			mem.Snap(s)
		}
	}
	for _, dev := range m.Devices {
		dev.Snap(s)
	}
	return sha256.Sum256(s.Finish())
}
