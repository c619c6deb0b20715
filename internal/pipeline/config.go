// Package pipeline implements the timing model of the base processor: an
// eight-wide, four-context SMT core resembling the Alpha 21464 (EV8), with
// the paper's IBOX/PBOX/QBOX/RBOX/EBOX/MBOX organisation (Figure 2, Table
// 1), plus the hooks that internal/rmt uses to turn it into an SRT or CRT
// machine.
//
// The model is cycle-driven. Instructions are executed functionally (by
// internal/vm) in program order at fetch, giving the timing model oracle
// knowledge of branch outcomes, addresses and values; the timing model then
// charges the real penalties: misfetches and mispredictions stall and
// redirect fetch, cache misses delay fills, queue and port limits throttle
// dispatch and issue, and the store queue holds stores until they may leave
// the sphere of replication. Wrong-path instructions are not simulated
// (their cache side effects are ignored), a standard oracle-frontend
// simplification.
package pipeline

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Stage latencies from Figure 2 of the paper.
const (
	IBOXLatency = 4 // fetch pipeline: thread choice, line predict, icache, RMB write
	PBOXLatency = 2 // rename
	QBOXLatency = 2 // queue front (insert to first possible issue)
	RBOXLatency = 4 // register read
	MBOXLatency = 2 // data cache / LVQ access after address generation
)

// Role describes how a hardware thread context participates.
type Role uint8

// Roles.
const (
	// RoleSingle is a non-redundant thread: stores leave the sphere at
	// retirement (base machine and lockstepped machines).
	RoleSingle Role = iota
	// RoleLeading is the leading copy of a redundant pair.
	RoleLeading
	// RoleTrailing is the trailing copy: fetch is driven by the line
	// prediction queue, loads come from the load value queue, stores are
	// compared and discarded.
	RoleTrailing
)

func (r Role) String() string {
	switch r {
	case RoleSingle:
		return "single"
	case RoleLeading:
		return "leading"
	case RoleTrailing:
		return "trailing"
	}
	return "role?"
}

// Config carries the machine parameters. DefaultConfig reproduces Table 1.
type Config struct {
	// FetchChunks is chunks fetched per cycle (from one thread).
	FetchChunks int
	// RMBCap is the per-thread rate-matching buffer capacity in
	// instructions.
	RMBCap int

	// MapWidth is instructions renamed per cycle (one chunk).
	MapWidth int

	// IQHalfCap is the capacity of each instruction-queue half.
	IQHalfCap int
	// IssuePerHalf is the issue bandwidth of each half.
	IssuePerHalf int

	// MaxLoads/MaxStores/MaxMem bound memory issue per cycle (Table 1:
	// four memory ops, at most two stores and three loads).
	MaxLoadsPerCycle  int
	MaxStoresPerCycle int
	MaxMemPerCycle    int
	// MaxFPPerCycle bounds FP issue (Table 1: four FP units).
	MaxFPPerCycle int

	// LQCap and SQCap are the total load/store queue sizes, statically
	// divided among the threads that use them (§3.4). PerThreadSQ gives
	// every thread its own SQCap-entry store queue instead (the paper's
	// proposed optimization, §4.2).
	LQCap       int
	SQCap       int
	PerThreadSQ bool

	// RetireWidth is instructions retired per cycle (all threads).
	RetireWidth int
	// InFlightCap bounds instructions between rename and retire
	// (completion-unit capacity; also stands in for the 512-entry
	// physical register file: 512 physical minus 256 architectural).
	InFlightCap int

	// StoreDrainPerCycle bounds verified/retired stores leaving the store
	// queue for the merge buffer per cycle per thread.
	StoreDrainPerCycle int
	// MergeBufEntries is the coalescing merge buffer capacity.
	MergeBufEntries int

	// LineRetrainBubble is the fetch bubble when the control-flow
	// predictors disagree with the line predictor and it must be
	// retrained and the fetch reinitiated (§3.1).
	LineRetrainBubble uint64
	// ReplayPenalty is charged to a load that issued before an older
	// conflicting store (memory-order violation replay).
	ReplayPenalty uint64
	// IOLatency is the round-trip latency of an uncached device access.
	IOLatency uint64
	// InterruptEvery, when non-zero, raises a timer interrupt for each
	// single/leading thread every so many cycles (the program must define
	// an interrupt handler). Trailing threads replicate the leading
	// thread's delivery points exactly (SRT interrupt input replication).
	InterruptEvery uint64

	// LVQSize and LPQSize size the RMT queues (entries / chunks). The
	// paper argues an LVQ equal in size to the store queue supports three
	// accesses per cycle without hurting cycle time.
	LVQSize int
	LPQSize int

	// RVQSize sizes the SRTR register value queue (entries). Only the
	// SRTR organisation builds an RVQ; a full RVQ stalls leading-thread
	// retirement, so it bounds the pair's lead-ahead in retired
	// register-writing instructions.
	RVQSize int

	// NoStoreComparison disables output comparison of stores (the paper's
	// "SRT + nosc" configuration in Figure 6): leading stores drain at
	// retirement as on the base machine. Input replication still happens.
	NoStoreComparison bool

	// SlackFetch, when positive, gates trailing-thread fetch on the
	// leading thread being at least this many committed instructions
	// ahead (the original SRT slack-fetch mechanism, kept for the
	// ablation study; 0 = the paper's LPQ-priority policy). Must be
	// comfortably below the LPQ's capacity in instructions
	// (LPQSize x average chunk size), or the leading thread's retirement
	// backpressure deadlocks against the slack gate.
	SlackFetch uint64

	// CheckerStorePenalty delays every store's exit from the sphere by
	// the lockstep checker latency (Lock8). Applied to RoleSingle stores.
	CheckerStorePenalty uint64

	// Hier configures the memory hierarchy.
	Hier mem.HierarchyConfig

	// Latency per instruction class (execution cycles after register
	// read). Zero entries default to 1.
	IntALULat, IntMulLat, IntDivLat uint64
	FPAddLat, FPMulLat, FPDivLat    uint64

	// BranchPredictorBits, LinePredictorBits, JumpPredictorBits and
	// RASDepth size the prediction structures.
	BranchPredictorBits uint
	LinePredictorBits   uint
	JumpPredictorBits   uint
	RASDepth            int

	// StoreSetBits and StoreSetCount size the memory dependence predictor.
	StoreSetBits  uint
	StoreSetCount int

	// WatchdogCycles aborts the run if no instruction retires for this
	// many cycles (deadlock detection). 0 disables.
	WatchdogCycles uint64

	// DisableInstPool turns off dynamic-instruction recycling (every
	// dynInst is heap-allocated and never reused). Timing is identical
	// either way; the knob exists so tests can diff the pooled machine
	// against the allocation-per-instruction one.
	DisableInstPool bool
}

// DefaultConfig returns the Table 1 base-machine parameters.
func DefaultConfig() Config {
	return Config{
		FetchChunks: 2,
		RMBCap:      32,

		MapWidth: 8,

		IQHalfCap:    64,
		IssuePerHalf: 4,

		MaxLoadsPerCycle:  3,
		MaxStoresPerCycle: 2,
		MaxMemPerCycle:    4,
		MaxFPPerCycle:     4,

		LQCap: 64,
		SQCap: 64,

		RetireWidth: 8,
		InFlightCap: 256,

		StoreDrainPerCycle: 2,
		MergeBufEntries:    16,

		LineRetrainBubble: 2,
		ReplayPenalty:     14,
		IOLatency:         100,

		LVQSize: 64,
		LPQSize: 32,
		RVQSize: 256,

		Hier: mem.DefaultHierarchyConfig(),

		IntALULat: 1, IntMulLat: 7, IntDivLat: 20,
		FPAddLat: 4, FPMulLat: 4, FPDivLat: 16,

		BranchPredictorBits: 15, // 3 tables x 32K x 2 bits ≈ Table 1's 208 Kbit
		LinePredictorBits:   15, // ≈ 28K entries
		JumpPredictorBits:   10,
		RASDepth:            32,

		StoreSetBits:  12, // 4K entries (Table 1)
		StoreSetCount: 256,

		WatchdogCycles: 100000,
	}
}

// classLat returns the execution latency for an instruction class.
func (c *Config) classLat(cl isa.Class) uint64 {
	var l uint64
	switch cl {
	case isa.ClassIntALU:
		l = c.IntALULat
	case isa.ClassIntMul:
		l = c.IntMulLat
	case isa.ClassIntDiv:
		l = c.IntDivLat
	case isa.ClassFPAdd:
		l = c.FPAddLat
	case isa.ClassFPMul:
		l = c.FPMulLat
	case isa.ClassFPDiv:
		l = c.FPDivLat
	default:
		l = 1
	}
	if l == 0 {
		l = 1
	}
	return l
}
