// Command rmtasm inspects workload kernels: disassembly listings, static
// statistics, binary encodings, and a dynamic opcode/character profile from
// functional execution. Several kernels can be inspected at once; their
// profiles are independent functional runs, so -parallel fans them across
// workers while the listing order stays fixed.
//
// -check runs the static program verifier (the Layer-2 half of rmtlint)
// over every selected program before anything is emitted: a malformed
// program is rejected with pc-level diagnostics on stderr and no output is
// written. -o serialises a single program to a binary image; -bin loads an
// image in place of the registered kernels, so images round-trip through
// the same listing, profiling and verification paths:
//
//	rmtasm -progs gcc                   # disassembly + static stats
//	rmtasm -progs swim,li -profile      # add dynamic profiles (-budget instructions)
//	rmtasm -progs li -hex               # include binary encodings
//	rmtasm -progs gcc -check -o gcc.img # verify, then write a binary image
//	rmtasm -bin gcc.img -check          # reload and re-verify the image
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis" //rmtlint:allow layering — runs the program verifier standalone, pc-level issue access
	"repro/internal/cliflags"
	"repro/internal/isa"     //rmtlint:allow layering — assembler/disassembler tool works on raw instructions
	"repro/internal/program" //rmtlint:allow layering — lists and builds the kernel registry directly
	"repro/internal/runner"  //rmtlint:allow layering — fans dynamic profiles across workers
	"repro/internal/vm"      //rmtlint:allow layering — functional execution for dynamic profiles
)

// profileData is one kernel's dynamic profile.
type profileData struct {
	n                         uint64
	counts                    map[string]uint64
	loads, stores, brs, taken uint64
	// trap says where the thread left the code image, if it did.
	trap string
}

func main() {
	var (
		progsFlag = flag.String("progs", "gcc", "comma-separated kernels to inspect")
		profile   = flag.Bool("profile", false, "run a dynamic profile per kernel (-budget instructions after -warmup)")
		hex       = flag.Bool("hex", false, "include binary encodings")
		check     = flag.Bool("check", false, "statically verify each program; reject malformed ones before writing any output")
		binFile   = flag.String("bin", "", "inspect a binary program image instead of registered kernels")
		outFile   = flag.String("o", "", "write the (single) selected program as a binary image")
	)
	sf := cliflags.RegisterSim(flag.CommandLine)
	flag.Parse()
	budget, warmup := sf.Sizes(100000, 0, 20000, 0)

	var infos []program.Info
	if *binFile != "" {
		f, err := os.Open(*binFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmtasm:", err)
			os.Exit(1)
		}
		name := strings.TrimSuffix(filepath.Base(*binFile), filepath.Ext(*binFile))
		p, err := isa.ReadImage(f, name)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmtasm:", err)
			os.Exit(1)
		}
		infos = []program.Info{{
			Name:        name,
			Suite:       "image",
			Description: "binary program image " + *binFile,
			Build:       func() *isa.Program { return p },
		}}
	} else {
		progs := cliflags.SplitProgs(*progsFlag)
		if len(progs) == 0 {
			fmt.Fprintln(os.Stderr, "rmtasm: no kernels given (-progs)")
			os.Exit(2)
		}
		infos = make([]program.Info, len(progs))
		for i, name := range progs {
			info, err := program.Get(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			infos[i] = info
		}
	}

	// Static verification gates everything: a malformed program produces
	// diagnostics on stderr and no listing, image or profile.
	if *check {
		bad := 0
		for _, info := range infos {
			for _, issue := range analysis.VerifyProgram(info.Build()) {
				fmt.Fprintf(os.Stderr, "rmtasm: %s: %s\n", info.Name, issue)
				bad++
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "rmtasm: %d issue(s); refusing to emit output\n", bad)
			os.Exit(1)
		}
	}

	if *outFile != "" {
		if len(infos) != 1 {
			fmt.Fprintln(os.Stderr, "rmtasm: -o needs exactly one program")
			os.Exit(2)
		}
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmtasm:", err)
			os.Exit(1)
		}
		err = isa.WriteImage(f, infos[0].Build())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmtasm:", err)
			os.Exit(1)
		}
	}

	// Profiles are independent functional runs: compute them up front
	// across the worker pool, keyed by kernel index.
	var profiles []profileData
	if *profile {
		jobs := make([]func() (profileData, error), len(infos))
		for i := range infos {
			info := infos[i]
			jobs[i] = func() (profileData, error) {
				return runProfile(info, warmup, budget), nil
			}
		}
		var err error
		profiles, _, err = runner.Run(jobs, runner.Options{Parallelism: sf.Parallel})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for i, info := range infos {
		if i > 0 {
			fmt.Println()
		}
		p := info.Build()
		fmt.Printf("%s (%s): %s\n", info.Name, info.Suite, info.Description)
		fmt.Printf("code: %d instructions, data image: %d bytes, interrupt handler: %d\n\n",
			len(p.Code), p.DataFootprint(), p.InterruptHandler)

		// Static mix.
		branches := 0
		for _, ins := range p.Code {
			if ins.IsBranch() {
				branches++
			}
		}
		fmt.Printf("static: %d branch sites (%.1f%% of code)\n\n",
			branches, 100*float64(branches)/float64(len(p.Code)))

		// Listing.
		for pc, ins := range p.Code {
			if *hex {
				fmt.Printf("%5d  %016x  %s\n", pc, uint64(isa.MustEncode(ins)), ins)
			} else {
				fmt.Printf("%5d  %s\n", pc, ins)
			}
		}

		if *profile {
			printProfile(profiles[i])
		}
	}
}

// runProfile functionally executes the kernel, skipping warmup
// instructions, then profiles up to budget instructions. The thread is
// tolerant: a program that runs off its code image (a loaded image need
// not end in HALT) stops with a trap instead of panicking.
func runProfile(info program.Info, warmup, budget uint64) profileData {
	p := info.Build()
	memImg := vm.NewMemory()
	vm.Load(p, memImg)
	th := vm.NewThread(0, p, memImg)
	th.Tolerant = true
	for i := uint64(0); i < warmup && !th.Halted; i++ {
		th.Step()
	}
	d := profileData{counts: map[string]uint64{}}
	for d.n < budget && !th.Halted {
		out := th.Step()
		if out.Trap {
			break
		}
		d.n++
		d.counts[out.Instr.Op.String()]++
		switch {
		case out.Instr.IsLoad():
			d.loads++
		case out.Instr.IsStore():
			d.stores++
		case out.Instr.IsBranch():
			d.brs++
			if out.Taken {
				d.taken++
			}
		}
	}
	if th.Trapped {
		d.trap = fmt.Sprintf("pc %d outside %q code (len %d)", th.PC, p.Name, len(p.Code))
	}
	return d
}

func printProfile(d profileData) {
	fmt.Printf("\ndynamic profile over %d instructions:\n", d.n)
	fmt.Printf("  loads %.1f%%  stores %.1f%%  branches %.1f%% (%.1f%% taken)\n",
		pct(d.loads, d.n), pct(d.stores, d.n), pct(d.brs, d.n), pct(d.taken, d.brs))
	if d.trap != "" {
		fmt.Printf("  trap: %s\n", d.trap)
	}
	type kv struct {
		op string
		n  uint64
	}
	var mix []kv
	for op, c := range d.counts {
		mix = append(mix, kv{op, c})
	}
	sort.Slice(mix, func(i, j int) bool {
		if mix[i].n != mix[j].n {
			return mix[i].n > mix[j].n
		}
		return mix[i].op < mix[j].op
	})
	for i, e := range mix {
		if i >= 12 {
			break
		}
		fmt.Printf("  %-8s %6.2f%%\n", e.op, pct(e.n, d.n))
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
