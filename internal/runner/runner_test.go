package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestOrdering: results come back keyed by job index regardless of the
// order workers complete them, and OnReport receives the returned report
// once.
func TestOrdering(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		n := 64
		jobs := make([]func() (int, error), n)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) { return i * i, nil }
		}
		var reports []Report
		got, rep, err := Run(jobs, Options{Parallelism: par, OnReport: func(r Report) { reports = append(reports, r) }})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
		if rep.Jobs != n || rep.Ran != n {
			t.Errorf("parallelism %d: report jobs=%d ran=%d, want %d", par, rep.Jobs, rep.Ran, n)
		}
		if len(reports) != 1 || reports[0] != rep {
			t.Errorf("parallelism %d: OnReport got %+v, want the returned report once", par, reports)
		}
	}
}

// TestErrorCancelsRemaining: after a failure, not-yet-started jobs are
// skipped and the failing error is propagated. Job 0 fails; job 1 holds
// its worker until Progress reports the first completion, which Run
// delivers only after it has recorded job 0's failure. So the two workers
// can start jobs 0 and 1 and nothing later, whatever the scheduling.
func TestErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	firstDone := make(chan struct{})
	var ran atomic.Int64
	n := 100
	jobs := make([]func() (int, error), n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			ran.Add(1)
			switch i {
			case 0:
				return 0, boom
			case 1:
				<-firstDone
			}
			return i, nil
		}
	}
	_, rep, err := Run(jobs, Options{Parallelism: 2, Progress: func(done, total int) {
		if done == 1 {
			close(firstDone)
		}
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want job 0's %v", err, boom)
	}
	started := ran.Load()
	if started > 2 {
		t.Errorf("%d jobs started, want at most 2: jobs 0 and 1", started)
	}
	if int64(rep.Ran) != started {
		t.Errorf("report ran=%d, but %d jobs started", rep.Ran, started)
	}
}

// TestLowestIndexError: with several failures the reported error is the
// lowest-index one — what a serial run would have stopped on.
func TestLowestIndexError(t *testing.T) {
	jobs := make([]func() (int, error), 8)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			if i >= 2 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		}
	}
	// High parallelism so several failures land concurrently.
	_, _, err := Run(jobs, Options{Parallelism: 8})
	if err == nil {
		t.Fatal("expected an error")
	}
	if got, want := err.Error(), "job 2 failed"; got != want {
		t.Errorf("err = %q, want %q (lowest index)", got, want)
	}
}

// TestProgressMonotonic: progress callbacks are serialized with strictly
// increasing done counts ending at the total.
func TestProgressMonotonic(t *testing.T) {
	n := 50
	jobs := make([]func() (int, error), n)
	for i := range jobs {
		jobs[i] = func() (int, error) { return 0, nil }
	}
	last := 0
	_, _, err := Run(jobs, Options{Parallelism: 8, Progress: func(done, total int) {
		if done != last+1 {
			t.Errorf("progress jumped %d -> %d", last, done)
		}
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Errorf("final progress = %d, want %d", last, n)
	}
}

// TestEmptyAndDefaults: zero jobs is a no-op; parallelism <= 0 resolves
// to a positive worker count.
func TestEmptyAndDefaults(t *testing.T) {
	got, rep, err := Run[int](nil, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: results=%v err=%v", got, err)
	}
	if rep.Speedup() != 1 {
		t.Errorf("empty report speedup = %v, want 1", rep.Speedup())
	}
	jobs := []func() (string, error){func() (string, error) { return "ok", nil }}
	res, rep, err := Run(jobs, Options{Parallelism: -3})
	if err != nil || res[0] != "ok" {
		t.Fatalf("default parallelism run: %v %v", res, err)
	}
	if rep.Parallelism < 1 {
		t.Errorf("resolved parallelism = %d, want >= 1", rep.Parallelism)
	}
}

// TestCancelFailsNextJob: a Cancel error fails the job it precedes, and at
// parallelism 1 no later job starts. OnReport fires once, counting the
// cancelled job among those that ran.
func TestCancelFailsNextJob(t *testing.T) {
	boom := errors.New("cancelled")
	var polls atomic.Int64
	var started []int
	n := 10
	jobs := make([]func() (int, error), n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			started = append(started, i)
			if i == 4 {
				return 0, errors.New("job 4 must not start")
			}
			return i, nil
		}
	}
	var reports []Report
	_, _, err := Run(jobs, Options{
		Parallelism: 1,
		Cancel: func() error {
			if polls.Add(1) == 3 {
				return boom
			}
			return nil
		},
		OnReport: func(r Report) { reports = append(reports, r) },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if fmt.Sprint(started) != "[0 1]" {
		t.Errorf("started jobs %v, want [0 1]", started)
	}
	if len(reports) != 1 {
		t.Fatalf("OnReport fired %d times, want once", len(reports))
	}
	if r := reports[0]; r.Jobs != n || r.Ran != 3 {
		t.Errorf("report jobs=%d ran=%d, want jobs=%d ran=3", r.Jobs, r.Ran, n)
	}
}

// TestCancelKeepsLowestIndexError: a job's own error at a lower index wins
// over a Cancel error at a higher one, whichever lands first.
func TestCancelKeepsLowestIndexError(t *testing.T) {
	boom := errors.New("cancelled")
	var polls atomic.Int64
	done1 := make(chan struct{})
	jobs := []func() (int, error){
		// Job 0 fails only after job 1 has finished, so job 2 may already
		// have been claimed and cancelled.
		func() (int, error) { <-done1; return 0, errors.New("job 0 failed") },
		func() (int, error) { close(done1); return 1, nil },
		func() (int, error) { return 2, nil },
	}
	var reports []Report
	_, _, err := Run(jobs, Options{
		Parallelism: 2,
		// Jobs 0 and 1 are claimed by the two workers before either
		// finishes, so only job 2's poll can fail.
		Cancel: func() error {
			if polls.Add(1) > 2 {
				return boom
			}
			return nil
		},
		OnReport: func(r Report) { reports = append(reports, r) },
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Errorf("err = %v, want job 0's error (lowest index)", err)
	}
	if len(reports) != 1 || reports[0].Ran > reports[0].Jobs {
		t.Errorf("reports = %+v, want one with ran <= jobs", reports)
	}
}
