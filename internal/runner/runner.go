// Package runner schedules independent simulation jobs across a worker
// pool. The paper's evaluation is embarrassingly parallel — every
// (kernel, configuration) simulation is independent — so the experiment
// drivers declare their job lists and hand them here instead of looping
// inline.
//
// Determinism contract: results are keyed by job index, not completion
// order, so callers that assemble tables from the returned slice produce
// byte-identical output at any parallelism. On failure the error with the
// lowest job index is returned — the same error a serial run would have
// stopped on.
package runner

import (
	"runtime"
	"sync"
	"time"
)

// Options is the run policy of every batch of independent simulations:
// figure sweeps, fault campaigns and the facade's Sweep all carry one and
// hand it to Run.
type Options struct {
	// Parallelism is the worker-goroutine count; values <= 0 select
	// runtime.GOMAXPROCS(0). 1 reproduces a serial run exactly.
	Parallelism int
	// Progress, when non-nil, is called after each job finishes with the
	// number of completed jobs and the total. Calls are serialized and
	// done is strictly increasing.
	Progress func(done, total int)
	// OnReport, when non-nil, receives the Run's timing Report once, just
	// before Run returns, whether or not a job failed.
	OnReport func(Report)
	// Cancel, when non-nil, is polled before each job starts. A non-nil
	// return fails that job with that error, exactly as if the job had
	// returned it: no later job starts.
	Cancel func() error
}

// Report describes how a Run spent its time.
type Report struct {
	// Jobs is the number of jobs submitted; Ran counts those that
	// started (fewer than Jobs only when an error or Options.Cancel
	// stopped the remainder).
	Jobs, Ran int
	// Parallelism is the resolved worker count.
	Parallelism int
	// Wall is the elapsed wall-clock time of the Run; Busy is the summed
	// duration of the individual jobs — approximately what a serial run
	// would have cost.
	Wall, Busy time.Duration
}

// Speedup returns Busy/Wall — the effective parallel speedup over a
// serial execution of the same jobs.
func (r Report) Speedup() float64 {
	if r.Wall <= 0 || r.Busy <= 0 {
		return 1
	}
	return float64(r.Busy) / float64(r.Wall)
}

// Run executes jobs across a worker pool and returns their results in job
// order. The first job error (lowest index among jobs that ran), or the
// first error opts.Cancel returns, cancels all not-yet-started jobs and is
// returned; in-flight jobs run to completion. A nil error guarantees every
// result slot is populated.
func Run[T any](jobs []func() (T, error), opts Options) ([]T, Report, error) {
	n := len(jobs)
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)

	var (
		mu     sync.Mutex // guards next, done, failed, Progress calls
		next   int
		done   int
		failed bool
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed = true
		}
		done++
		if opts.Progress != nil {
			opts.Progress(done, n)
		}
	}

	start := time.Now() //rmtlint:allow determinism — wall-clock feeds only the stderr timing Report, never canonical output
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				t0 := time.Now() //rmtlint:allow determinism — per-job Busy time for the stderr timing Report only
				var v T
				var err error
				if opts.Cancel != nil {
					err = opts.Cancel()
				}
				if err == nil {
					v, err = jobs[i]()
				}
				durs[i] = time.Since(t0)
				if err != nil {
					errs[i] = err
				} else {
					results[i] = v
				}
				finish(i, err)
			}
		}()
	}
	wg.Wait()

	rep := Report{Jobs: n, Ran: done, Parallelism: workers, Wall: time.Since(start)}
	for _, d := range durs {
		rep.Busy += d
	}
	if opts.OnReport != nil {
		opts.OnReport(rep)
	}
	for _, err := range errs {
		if err != nil {
			return nil, rep, err
		}
	}
	return results, rep, nil
}
