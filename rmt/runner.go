package rmt

import (
	"context"

	"repro/internal/fault"
)

// Runner abstracts where simulations execute: Local runs them in-process,
// Client ships them to an rmtd daemon. Both produce identical results for
// identical inputs (the daemon computes through the same engine and its
// cache replays stored bytes), so tools and tests pick a backend at one
// seam and the rest of the code is oblivious.
type Runner interface {
	Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error)
	Sweep(ctx context.Context, specs []Spec, opts ...Option) ([]*Result, error)
	Campaign(ctx context.Context, cs CampaignSpec, opts ...Option) (*CampaignSummary, error)
}

// Local is the in-process Runner: method forms of the package-level Run,
// Sweep and Campaign.
type Local struct{}

var (
	_ Runner = Local{}
	_ Runner = (*Client)(nil)
)

// Run executes the simulation in-process.
func (Local) Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	return Run(ctx, spec, opts...)
}

// Sweep executes the simulations in-process.
func (Local) Sweep(ctx context.Context, specs []Spec, opts ...Option) ([]*Result, error) {
	return Sweep(ctx, specs, opts...)
}

// Campaign executes the fault-injection campaign in-process.
func (Local) Campaign(ctx context.Context, cs CampaignSpec, opts ...Option) (*CampaignSummary, error) {
	return Campaign(ctx, cs, opts...)
}

// Campaign sizing defaults, mirroring the rmtd daemon's: a campaign sized
// by WithBudget/WithWarmup(0) (or no option at all) uses these, so a local
// Campaign and a Client.Campaign of the same CampaignSpec and options
// measure the same machine. WithQuick does not apply to campaigns.
const (
	DefaultCampaignBudget uint64 = 20000
	DefaultCampaignWarmup uint64 = 5000
)

// Campaign runs a deterministic transient-fault injection campaign
// in-process using the fork-on-fault engine: the fault-free run is
// simulated once, as the first job of the campaign's worker pool, with a
// machine snapshot every 1024 cycles; each trial starts from the
// fault-free state at the cycle its fault fires, as soon as the fault-free
// run gets there, and replays only the divergent suffix. The summary —
// including per-trial outcome order — is identical at any parallelism and
// matches what an rmtd daemon serves for the same request. Progress and
// Report count the fault-free run as one job beside the trials.
// Cancelling ctx aborts the campaign within one checkpoint interval of its
// fault-free run, or between trials.
func Campaign(ctx context.Context, cs CampaignSpec, opts ...Option) (*CampaignSummary, error) {
	c := newConfig(opts)
	c.Cancel = ctx.Err
	budget, warmup := c.budget, c.warmup
	if budget == 0 {
		budget = DefaultCampaignBudget
	}
	if warmup == 0 {
		warmup = DefaultCampaignWarmup
	}
	sum, err := fault.Campaign(cs.Spec.toSim(budget, warmup), cs.N, cs.Seed, c.Options)
	if err != nil {
		return nil, err
	}
	out := &CampaignSummary{
		Runs:                sum.Runs,
		Detected:            sum.Detected,
		Masked:              sum.Masked,
		NotFired:            sum.NotFired,
		Recovered:           sum.Recovered,
		UnprotectedSDC:      sum.UnprotectedSDC,
		Coverage:            sum.Coverage(),
		MeanDetectionCycles: sum.MeanDetectionCycles,
		MeanRecoveryCycles:  sum.MeanRecoveryCycles,
		TotalCycles:         sum.TotalCycles,
		Outcomes:            make([]string, 0, len(sum.Results)),
	}
	for _, res := range sum.Results {
		out.Outcomes = append(out.Outcomes, res.Outcome.String())
	}
	return out, nil
}
