// Package cliflags centralises the flag group shared by the cmd/ tools, so
// -budget, -warmup, -quick and -parallel spell and behave identically
// everywhere instead of each main() hand-rolling its own copies.
package cliflags

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// Sim is the shared simulation flag group.
type Sim struct {
	// Budget and Warmup are instruction counts; 0 means "use the tool's
	// full/quick default" (see Sizes).
	Budget uint64
	Warmup uint64
	// Quick selects cut-down sizes.
	Quick bool
	// Parallel is the worker-goroutine count for independent simulations.
	// Tools pass it on as is; the runner resolves <= 0 to GOMAXPROCS.
	Parallel int
}

// RegisterSim installs the shared -budget/-warmup/-quick/-parallel group
// on fs. -parallel defaults to runtime.GOMAXPROCS(0); -parallel 1
// reproduces serial execution (results are identical either way).
func RegisterSim(fs *flag.FlagSet) *Sim {
	s := &Sim{}
	fs.Uint64Var(&s.Budget, "budget", 0, "measured instructions per logical thread (0 = tool default)")
	fs.Uint64Var(&s.Warmup, "warmup", 0, "warmup instructions before measurement (0 = tool default)")
	fs.BoolVar(&s.Quick, "quick", false, "use cut-down sizes")
	fs.IntVar(&s.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent simulations (1 = serial)")
	return s
}

// Sizes resolves -budget/-warmup against the tool's defaults: explicit
// flag values win, otherwise -quick selects the quick pair.
func (s *Sim) Sizes(fullBudget, fullWarmup, quickBudget, quickWarmup uint64) (budget, warmup uint64) {
	budget, warmup = fullBudget, fullWarmup
	if s.Quick {
		budget, warmup = quickBudget, quickWarmup
	}
	if s.Budget > 0 {
		budget = s.Budget
	}
	if s.Warmup > 0 {
		warmup = s.Warmup
	}
	return budget, warmup
}

// Serve is the flag group of the rmtd daemon.
type Serve struct {
	// Addr is the listen address.
	Addr string
	// Workers bounds concurrently executing simulation requests; Queue
	// bounds requests waiting for a worker (beyond it: 429).
	Workers int
	Queue   int
	// CacheEntries bounds the content-addressed result cache.
	CacheEntries int
	// SimParallel fans one sweep's or campaign's internal jobs across
	// workers (results never depend on it).
	SimParallel int
	// DrainTimeout bounds the graceful drain on SIGINT/SIGTERM.
	DrainTimeout time.Duration
}

// RegisterServe installs the rmtd serving flag group on fs.
func RegisterServe(fs *flag.FlagSet) *Serve {
	s := &Serve{}
	fs.StringVar(&s.Addr, "addr", "127.0.0.1:8471", "listen address (host:port; :0 picks a free port)")
	fs.IntVar(&s.Workers, "workers", 2, "concurrently executing simulation requests")
	fs.IntVar(&s.Queue, "queue", 8, "requests allowed to wait for a worker before 429")
	fs.IntVar(&s.CacheEntries, "cache-entries", 512, "content-addressed result cache size (entries)")
	fs.IntVar(&s.SimParallel, "sim-parallel", 1, "goroutines per sweep/campaign request (results are identical at any value)")
	fs.DurationVar(&s.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on SIGINT/SIGTERM")
	return s
}

// Prof is the shared profiling flag group. The profiles observe the tool,
// not the simulation: enabling them never changes simulated results.
type Prof struct {
	// CPUProfile and MemProfile name output files ("" = disabled).
	CPUProfile string
	MemProfile string
}

// RegisterProf installs the shared -cpuprofile/-memprofile group on fs.
func RegisterProf(fs *flag.FlagSet) *Prof {
	p := &Prof{}
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when requested and returns the function that
// finishes both profiles; call it on every exit path (defer after a
// successful Start).
func (p *Prof) Start() (stop func() error, err error) {
	var cpuF *os.File
	if p.CPUProfile != "" {
		cpuF, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if p.MemProfile != "" {
			f, err := os.Create(p.MemProfile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// SplitProgs splits a comma-separated -progs value, trimming spaces and
// dropping empty elements.
func SplitProgs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
