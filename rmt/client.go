package rmt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a running rmtd daemon (cmd/rmtd, internal/server): the
// same experiments Run and Sweep compute locally, served over HTTP with
// content-addressed caching on the daemon side. Methods mirror the local
// API — Client.Run returns the identical Result a local Run of the same
// spec and sizes would, because the daemon computes through this very
// facade and a cache hit replays the stored bytes.
//
//	c := rmt.NewClient("http://127.0.0.1:8471")
//	res, err := c.Run(ctx, rmt.Spec{Mode: rmt.SRT, Programs: []string{"gcc"}}, rmt.WithQuick())
type Client struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8471".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// SpecWire is the JSON form of one simulation spec on rmtd's HTTP API:
// Spec with the mode spelled by name. It and the three request bodies
// below are the one definition of the wire schema; Client sends them and
// internal/server decodes them. Field order and tags are part of the
// daemon's cache keys.
type SpecWire struct {
	Mode               string   `json:"mode"`
	Programs           []string `json:"programs"`
	PSR                bool     `json:"psr"`
	PerThreadSQ        bool     `json:"per_thread_sq"`
	NoStoreComparison  bool     `json:"no_store_comparison"`
	CheckerLatency     uint64   `json:"checker_latency"`
	AdaptiveThreshold  float64  `json:"adaptive_threshold"`
	CheckpointInterval uint64   `json:"checkpoint_interval"`
}

// Wire returns the spec's wire form.
func (s Spec) Wire() SpecWire {
	return SpecWire{
		Mode:               s.Mode.String(),
		Programs:           s.Programs,
		PSR:                s.PSR,
		PerThreadSQ:        s.PerThreadSQ,
		NoStoreComparison:  s.NoStoreComparison,
		CheckerLatency:     s.CheckerLatency,
		AdaptiveThreshold:  s.AdaptiveThreshold,
		CheckpointInterval: s.CheckpointInterval,
	}
}

// Spec parses and validates the wire form: a known mode and a non-empty
// list of known kernels. The spec it returns is canonical (Spec.Canonical).
func (w SpecWire) Spec() (Spec, error) {
	mode, err := ParseMode(w.Mode)
	if err != nil {
		return Spec{}, err
	}
	if len(w.Programs) == 0 {
		return Spec{}, fmt.Errorf("spec has no programs")
	}
	for _, p := range w.Programs {
		if !KnownKernel(p) {
			return Spec{}, fmt.Errorf("unknown kernel %q (see rmt.Kernels() for the registry; generated kernels are \"gen:<seed>\")", p)
		}
	}
	return Spec{
		Mode:               mode,
		Programs:           w.Programs,
		PSR:                w.PSR,
		PerThreadSQ:        w.PerThreadSQ,
		NoStoreComparison:  w.NoStoreComparison,
		CheckerLatency:     w.CheckerLatency,
		AdaptiveThreshold:  w.AdaptiveThreshold,
		CheckpointInterval: w.CheckpointInterval,
	}.Canonical(), nil
}

// RunRequest is the body of POST /run.
type RunRequest struct {
	SpecWire
	// Budget/Warmup are instruction counts; 0 selects the rmt defaults
	// and is resolved to the concrete value before keying.
	Budget uint64 `json:"budget"`
	Warmup uint64 `json:"warmup"`
}

// SweepRequest is the body of POST /sweep: independent specs sharing one
// sizing, exactly like Sweep.
type SweepRequest struct {
	Specs  []SpecWire `json:"specs"`
	Budget uint64     `json:"budget"`
	Warmup uint64     `json:"warmup"`
}

// CampaignRequest is the body of POST /campaign: a deterministic
// transient-fault injection campaign (Campaign) against a paired mode.
type CampaignRequest struct {
	SpecWire
	// N is the number of injection trials; Seed draws the fault plan.
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
	// Budget/Warmup as in RunRequest (0 = campaign defaults).
	Budget uint64 `json:"budget"`
	Warmup uint64 `json:"warmup"`
}

// CampaignSpec describes a deterministic transient-fault injection
// campaign. Its mode must be paired (Mode.Paired): the campaign strikes
// one copy of each leading/trailing pair.
type CampaignSpec struct {
	Spec Spec
	// N is the number of injection trials (negative is an error); Seed
	// draws the fault plan.
	N    int
	Seed uint64
}

// CampaignSummary is the daemon's campaign report.
type CampaignSummary struct {
	Runs     int `json:"runs"`
	Detected int `json:"detected"`
	Masked   int `json:"masked"`
	NotFired int `json:"not_fired"`
	// Recovered counts trials where SRTR rolled back to a validated
	// checkpoint and reconverged with the fault-free run; UnprotectedSDC
	// counts adaptive-mode trials where a flip outside the protected
	// region silently corrupted architectural state.
	Recovered           int     `json:"recovered"`
	UnprotectedSDC      int     `json:"unprotected_sdc"`
	Coverage            float64 `json:"coverage"`
	MeanDetectionCycles float64 `json:"mean_detection_cycles"`
	// MeanRecoveryCycles is the mean rollback re-execution distance over
	// recovered trials.
	MeanRecoveryCycles float64 `json:"mean_recovery_cycles"`
	TotalCycles        uint64  `json:"total_cycles"`
	// Outcomes lists per-trial classifications in trial order.
	Outcomes []string `json:"outcomes"`
}

// Run executes one simulation on the daemon. WithBudget/WithWarmup/
// WithQuick size it exactly as they size a local Run; execution-policy
// options (parallelism, progress) are daemon-side concerns and ignored.
func (c *Client) Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	cfg := newConfig(opts)
	budget, warmup := cfg.sizes()
	body := RunRequest{SpecWire: spec.Wire(), Budget: budget, Warmup: warmup}
	var res Result
	if err := c.post(ctx, "/run", body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Sweep executes independent simulations on the daemon, results in input
// order — the same slice a local Sweep of the same specs returns.
func (c *Client) Sweep(ctx context.Context, specs []Spec, opts ...Option) ([]*Result, error) {
	cfg := newConfig(opts)
	budget, warmup := cfg.sizes()
	body := SweepRequest{Specs: make([]SpecWire, len(specs)), Budget: budget, Warmup: warmup}
	for i, s := range specs {
		body.Specs[i] = s.Wire()
	}
	var results []*Result
	if err := c.post(ctx, "/sweep", body, &results); err != nil {
		return nil, err
	}
	return results, nil
}

// Campaign runs a fault-injection campaign on the daemon.
func (c *Client) Campaign(ctx context.Context, cs CampaignSpec, opts ...Option) (*CampaignSummary, error) {
	cfg := newConfig(opts)
	budget, warmup := cfg.budget, cfg.warmup // 0 = daemon campaign defaults
	body := CampaignRequest{SpecWire: cs.Spec.Wire(), N: cs.N, Seed: cs.Seed, Budget: budget, Warmup: warmup}
	var sum CampaignSummary
	if err := c.post(ctx, "/campaign", body, &sum); err != nil {
		return nil, err
	}
	return &sum, nil
}

// Health probes /healthz; nil means the daemon is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rmt: daemon unhealthy: %s", resp.Status)
	}
	return nil
}

// Metrics fetches the daemon's /metricsz snapshot (an internal/metrics
// JSON document: cache hit ratio, queue depth, latency histograms).
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rmt: metricsz: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// RetryAfterError reports daemon backpressure: the request was shed with
// 429 and may be retried after the hinted delay.
type RetryAfterError struct {
	// RetryAfter is the daemon's Retry-After hint.
	RetryAfter time.Duration
	// Message is the daemon's error body.
	Message string
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("rmt: daemon overloaded (retry after %v): %s", e.RetryAfter, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends body as JSON and decodes the response into out.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	enc, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(enc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		var ra time.Duration
		if secs := resp.Header.Get("Retry-After"); secs != "" {
			var n int
			if _, err := fmt.Sscanf(secs, "%d", &n); err == nil {
				ra = time.Duration(n) * time.Second
			}
		}
		return &RetryAfterError{RetryAfter: ra, Message: decodeErrBody(raw)}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rmt: %s: %s: %s", path, resp.Status, decodeErrBody(raw))
	}
	return json.Unmarshal(raw, out)
}

func decodeErrBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}
