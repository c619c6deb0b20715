package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestOrdering: results come back keyed by job index regardless of the
// order workers complete them.
func TestOrdering(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		n := 64
		jobs := make([]func() (int, error), n)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) { return i * i, nil }
		}
		got, rep, err := Run(jobs, Options{Parallelism: par})
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
	}
}

// TestErrorCancelsRemaining: after a failure, not-yet-started jobs are
// skipped and the failing error is propagated.
func TestErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	n := 100
	jobs := make([]func() (int, error), n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}
	}
	_, rep, err := Run(jobs, Options{Parallelism: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Jobs in flight when the failure lands still finish, but the long
	// tail must have been cancelled.
	if got := ran.Load(); got >= int64(n) {
		t.Errorf("all %d jobs ran despite early failure", got)
	}
	if rep.Ran >= rep.Jobs {
		t.Errorf("report ran=%d jobs=%d: expected cancellation", rep.Ran, rep.Jobs)
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
