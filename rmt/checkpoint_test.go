package rmt

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestCheckpointResume: a run interrupted at a checkpoint and resumed from
// the snapshot produces the identical Result to the uninterrupted run —
// the facade form of the snapshot layer's cycle-identity invariant.
func TestCheckpointResume(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Mode: SRT, PSR: true, Programs: []string{"compress"}}

	ref, err := Run(ctx, spec, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}

	var lastSnap []byte
	var lastCycle uint64
	_, err = Run(ctx, spec, testOpts(WithCheckpoint(1500, func(cycle uint64, snapshot []byte) error {
		lastSnap, lastCycle = snapshot, cycle
		return nil
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	if lastSnap == nil {
		t.Fatal("checkpoint sink never called")
	}
	if lastCycle == 0 || lastCycle%1500 != 0 {
		t.Fatalf("checkpoint at cycle %d, want a positive multiple of 1500", lastCycle)
	}

	got, err := Run(ctx, spec, testOpts(Resume(lastSnap))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("resumed run differs from uninterrupted run:\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestCheckpointSinkErrorAborts: a sink error stops the run and surfaces
// verbatim, so caller sentinels survive errors.Is. This is how a caller
// implements "pause": return a sentinel from the sink, keep the snapshot.
func TestCheckpointSinkErrorAborts(t *testing.T) {
	pause := errors.New("pause requested")
	spec := Spec{Mode: SRT, PSR: true, Programs: []string{"compress"}}
	_, err := Run(context.Background(), spec, testOpts(WithCheckpoint(1000, func(uint64, []byte) error {
		return pause
	}))...)
	if !errors.Is(err, pause) {
		t.Fatalf("err = %v, want the sink's sentinel", err)
	}
}

// TestRunContextCancel: a cancelled context aborts the simulation with the
// context's error.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Mode: SRT, PSR: true, Programs: []string{"gcc"}}, testOpts()...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLocalCampaign: the package-level Campaign runs in-process and its
// summary partitions the trials; a zero-trial campaign is empty, and a
// negative trial count is an error rather than a panic.
func TestLocalCampaign(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantErr bool
	}{
		{n: 5},
		{n: 0},
		{n: -1, wantErr: true},
	} {
		sum, err := Campaign(context.Background(), CampaignSpec{
			Spec: Spec{Mode: SRT, PSR: true, Programs: []string{"compress"}},
			N:    tc.n,
			Seed: 7,
		}, WithBudget(3000), WithWarmup(1000))
		if tc.wantErr {
			if err == nil {
				t.Errorf("N=%d: campaign should error", tc.n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("N=%d: %v", tc.n, err)
		}
		if sum.Runs != tc.n || len(sum.Outcomes) != tc.n {
			t.Fatalf("N=%d: summary %+v, want %d runs with %d outcomes", tc.n, sum, tc.n, tc.n)
		}
		if sum.Detected+sum.Masked+sum.NotFired != sum.Runs {
			t.Fatalf("N=%d: classification doesn't partition: %+v", tc.n, sum)
		}
	}
}

// TestCampaignContextCancel: cancellation propagates out of the campaign.
func TestCampaignContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Campaign(ctx, CampaignSpec{
		Spec: Spec{Mode: SRT, PSR: true, Programs: []string{"compress"}},
		N:    3,
		Seed: 1,
	}, WithBudget(3000), WithWarmup(1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
