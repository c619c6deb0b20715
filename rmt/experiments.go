package rmt

import (
	"repro/internal/exp"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Table is a rendered experiment report: a titled grid with aligned-text
// and CSV renderings.
type Table struct {
	tab *stats.Table
}

// String renders the table with aligned columns.
func (t *Table) String() string { return t.tab.String() }

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string { return t.tab.CSV() }

// Title returns the table title.
func (t *Table) Title() string { return t.tab.Title }

// Columns returns the column headers.
func (t *Table) Columns() []string { return t.tab.Columns }

// Rows returns the table body.
func (t *Table) Rows() [][]string { return t.tab.Rows }

// Experiment is one table/figure of the paper's evaluation.
type Experiment struct {
	// ID is the short name used by rmtbench's -exp flag ("fig6", ...).
	ID string
	// Description is a one-line summary.
	Description string

	run func(exp.Params) (*stats.Table, map[string]float64, error)
}

// Run regenerates the experiment at the sizes selected by opts (full sizes
// by default, WithQuick for the cut-down ones) and returns its table plus
// the summary metrics keyed by name. Independent simulations inside the
// experiment are fanned across WithParallelism workers; the output is
// identical at any parallelism.
func (e Experiment) Run(opts ...Option) (*Table, map[string]float64, error) {
	tab, summary, err := e.run(newConfig(opts).expParams())
	if err != nil {
		return nil, nil, err
	}
	return &Table{tab: tab}, summary, nil
}

// ExperimentSizes resolves the budget/warmup instruction counts an
// Experiment.Run with these options will use (full sizes by default,
// WithQuick's cut-down ones, explicit WithBudget/WithWarmup winning).
func ExperimentSizes(opts ...Option) (budget, warmup uint64) {
	p := newConfig(opts).expParams()
	return p.Budget, p.Warmup
}

// expParams resolves the experiment sizes the options select (full sizes
// by default, WithQuick's cut-down ones, explicit WithBudget/WithWarmup
// winning) and carries the run policy over unchanged.
func (c config) expParams() exp.Params {
	p := exp.Full()
	if c.quick {
		p = exp.Quick()
	}
	p.Options = c.Options
	if c.budget > 0 {
		p.Budget = c.budget
	}
	if c.warmup > 0 {
		p.Warmup = c.warmup
	}
	return p
}

// Experiments returns the paper's evaluation in presentation order: one
// entry per figure plus the fault-injection coverage campaigns.
func Experiments() []Experiment {
	return []Experiment{
		{"fig6", "SRT single logical thread (Base2 / SRT / ptSQ / noSC)", exp.Fig6},
		{"fig7", "preferential space redundancy", exp.Fig7},
		{"fig8", "SRT with two logical threads", exp.Fig8},
		{"fig9", "store-queue lifetime and size sensitivity", exp.Fig9},
		{"fig10", "lockstep vs CRT, one logical thread", exp.Fig10},
		{"fig11", "lockstep vs CRT, two logical threads", exp.Fig11},
		{"fig12", "lockstep vs CRT, four logical threads", exp.Fig12},
		{"coverage", "fault-injection campaigns", exp.Coverage},
		{"recovery", "SRTR rollback latency vs checkpoint interval", exp.FigRecovery},
		{"adaptive", "adaptive partial-redundancy frontier", exp.FigAdaptive},
	}
}

// Table1 reports the base processor parameters (the paper's Table 1),
// taken live from the default configuration.
func Table1() *Table {
	return &Table{tab: exp.Table1(pipeline.DefaultConfig())}
}
