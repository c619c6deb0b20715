package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/fault"  //rmtlint:allow layering — the faulted replay arms lanes with the campaign engine's own fault plan
	"repro/internal/progen" //rmtlint:allow layering — the workload times the generator and its characterisation pass directly
	"repro/internal/runner" //rmtlint:allow layering — kernels fan over the same worker pool the simulator's sweeps use
	"repro/internal/sim"    //rmtlint:allow layering — fault.Plan sizes its injection window from a sim.Spec
	"repro/internal/vm"     //rmtlint:allow layering — the workload times vm.Batch replays, which the facade does not expose
	"repro/rmt"
)

const (
	// corpusKernels is calibrated so one pass takes 8–15 s on two cores;
	// it takes corpusPass on the reference host.
	corpusKernels = 200
	corpusPass    = 9 * time.Second
	// corpusLanes is the batch width of both replays, the campaign-replay
	// shape of BenchmarkFunctionalCampaignReplay.
	corpusLanes = 64
)

var corpus = &workload{
	name: "corpus",
	why:  "200 seeded generated kernels through progen, the static ACE analysis and 64-lane functional VM replays, fault-free and faulted: no timing model runs",
	setup: func(s *recorder) (*prepared, error) {
		n := corpusKernels
		if s.cfg.smoke {
			n = 6
		}
		// Build the corpus, then warm the process on one fixed kernel's
		// full treatment (a seeded one would make set-up time vary with the
		// seed).
		seeds := progen.CorpusSeeds(s.cfg.seed, n)
		built := make([]*progen.Kernel, n)
		for i, seed := range seeds {
			built[i] = progen.Generate(seed)
		}
		if _, err := processKernel(nil, progen.Generate(progen.CorpusSeeds(genCorpus, 1)[0]), 0, 0); err != nil {
			return nil, err
		}
		var tracks lanes
		var firstDigest string
		measure := func(window time.Duration) error {
			start := now()
			var busy time.Duration
			var instrs float64
			err := passes(window, corpusPass, func(pass int) error {
				jobs := make([]func() (kernelResult, error), len(seeds))
				for i, seed := range seeds {
					jobs[i] = func() (kernelResult, error) {
						lane := tracks.acquire()
						defer tracks.release(lane)
						sp := s.begin("corpus.kernel", lane, 0, int64(i))
						gen := s.begin("progen.generate", lane, sp.sp.ID, 0)
						k := progen.Generate(seed)
						gen.end()
						var err error
						if k.MaxDynInstr != built[i].MaxDynInstr || len(k.Prog.Code) != len(built[i].Prog.Code) {
							err = fmt.Errorf("corpus %s: regenerated kernel differs from the one built in set-up", k.Prog.Name)
						}
						var res kernelResult
						if err == nil {
							res, err = processKernel(s, k, lane, sp.sp.ID)
						}
						s.op(strconv.Itoa(i), sp.end(), err)
						return res, nil
					}
				}
				results, rep, err := runner.Run(jobs, runner.Options{Parallelism: parallelism})
				if err != nil {
					return err
				}
				busy += rep.Busy
				h := sha256.New()
				var passInstrs float64
				for _, r := range results {
					h.Write(r.digest[:])
					passInstrs += r.instrs
				}
				instrs += passInstrs
				s.addWork(passInstrs)
				digest := hex.EncodeToString(h.Sum(nil))
				if firstDigest == "" {
					firstDigest = digest
				}
				s.verify(sameDigest("corpus pass", digest, firstDigest))
				s.setDigest(digest)
				s.count("instructions", passInstrs)
				return nil
			})
			elapsed := time.Since(start).Seconds()
			for _, name := range []string{"progen.generate", "analysis.ace", "progen.characterize", "vm.batch", "vm.faulted_batch"} {
				s.set(name+"_s", s.timer(name))
			}
			s.set("runner.busy_s", busy.Seconds())
			s.set("runner.speedup", busy.Seconds()/elapsed)
			s.set("minstr_per_s", instrs/1e6/elapsed)
			return err
		}
		return &prepared{measure: measure, close: func() {}}, nil
	},
}

// kernelResult is one kernel's canonical output digest and the functional
// instructions its treatment executed.
type kernelResult struct {
	digest [32]byte
	instrs float64
}

// processKernel runs one generated kernel through the remaining corpus
// stages and checks the results: the static ACE analysis, the
// characterisation replay, a fault-free 64-lane batch whose lanes must all
// halt in the characterised instruction count with identical registers,
// and a 64-lane batch armed with the campaign planner's transients, each
// lane classified against the fault-free state. s may be nil (warm-up).
func processKernel(s *recorder, k *progen.Kernel, lane int, parent int64) (kernelResult, error) {
	stage := func(name string, fn func() error) error {
		if s == nil {
			return fn()
		}
		sp := s.begin(name, lane, parent, 0)
		defer sp.end()
		return fn()
	}
	var (
		prof *rmt.VulnerabilityProfile
		ch   *progen.Profile
		err  error
		res  kernelResult
	)
	if err := stage("analysis.ace", func() error { prof, err = rmt.AnalyzeProgram(k.Prog); return err }); err != nil {
		return res, fmt.Errorf("corpus %s: ACE analysis: %w", k.Prog.Name, err)
	}
	if err := stage("progen.characterize", func() error { ch, err = progen.Characterize(k); return err }); err != nil {
		return res, fmt.Errorf("corpus %s: %w", k.Prog.Name, err)
	}
	maxRounds := 4*k.MaxDynInstr + 64

	mem := vm.NewMemory()
	vm.Load(k.Prog, mem)
	var clean *vm.Batch
	_ = stage("vm.batch", func() error {
		clean = vm.NewBatch(k.Prog, mem, corpusLanes)
		clean.Tolerant = true
		clean.Run(maxRounds)
		return nil
	})
	for l := 0; l < corpusLanes; l++ {
		if !clean.Halted[l] || clean.Trapped[l] || clean.Seq[l] != ch.DynInstrs || !sameRegs(clean, l, clean, 0) {
			return res, fmt.Errorf("corpus %s: fault-free lane %d ended (halted %v, trapped %v, %d instructions) unlike the characterised run (%d instructions)",
				k.Prog.Name, l, clean.Halted[l], clean.Trapped[l], clean.Seq[l], ch.DynInstrs)
		}
	}

	plan := fault.Plan(sim.Spec{Programs: []string{k.Prog.Name}, Warmup: k.MaxDynInstr / 4, Budget: k.MaxDynInstr}, corpusLanes, mix(k.Seed, 0))
	var faulted *vm.Batch
	_ = stage("vm.faulted_batch", func() error {
		faulted = vm.NewBatch(k.Prog, mem, corpusLanes)
		faulted.Tolerant = true
		for l, f := range plan {
			faulted.Corrupt[l] = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
				if point == f.Point && seq == f.AtSeq {
					return v ^ (1 << (f.Bit & 63))
				}
				return v
			}
		}
		faulted.Run(maxRounds)
		return nil
	})
	// Per lane: 0 masked (same final registers), 1 corrupted, 2 trapped,
	// 3 still running at the round cap.
	classes := make([]byte, corpusLanes)
	for l := range classes {
		switch {
		case !faulted.Halted[l]:
			classes[l] = 3
		case faulted.Trapped[l]:
			classes[l] = 2
		case !sameRegs(faulted, l, clean, 0):
			classes[l] = 1
		}
	}

	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(prof); err != nil {
		return res, err
	}
	if err := enc.Encode(ch); err != nil {
		return res, err
	}
	tail := classes
	for l := 0; l < corpusLanes; l++ {
		tail = binary.LittleEndian.AppendUint64(tail, faulted.Seq[l])
	}
	h.Write(tail)
	copy(res.digest[:], h.Sum(nil))
	res.instrs = float64(ch.DynInstrs) + float64(ch.DynInstrs)*corpusLanes
	for l := 0; l < corpusLanes; l++ {
		res.instrs += float64(faulted.Seq[l])
	}
	return res, nil
}

// sameRegs reports whether lane a of x and lane b of y hold identical
// integer and floating-point registers.
func sameRegs(x *vm.Batch, a int, y *vm.Batch, b int) bool {
	for r := range x.IntReg {
		if x.IntReg[r][a] != y.IntReg[r][b] {
			return false
		}
	}
	for r := range x.FPReg {
		if x.FPReg[r][a] != y.FPReg[r][b] {
			return false
		}
	}
	return true
}
