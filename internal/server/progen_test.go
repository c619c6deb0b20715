package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/rmt"
)

// Generated kernels over the wire: rmtd must serve "gen:<seed>" names as
// first-class experiment identities — same validation path, same
// canonical cache keys, same byte-for-byte agreement with the local
// runner the curated kernels get.

// TestGenCRTMixCampaignEndpointMatchesDirect is the acceptance criterion:
// a randomized 2-pair cross-coupled CRT mix served through /campaign
// agrees with a direct local fault.Campaign on every aggregate
// and every per-trial outcome, and the repeat request is a cache hit
// serving identical bytes.
func TestGenCRTMixCampaignEndpointMatchesDirect(t *testing.T) {
	pair := progen.MixPairs(0xC0FFEE, 1)[0]
	_, ts := newTestServer(t, Config{SimParallelism: 2})
	const (
		n      = 6
		seed   = 11
		budget = 2500
		warmup = 1000
	)
	direct, err := fault.Campaign(sim.Spec{
		Mode:     sim.ModeCRT,
		Programs: []string{pair[0], pair[1]},
		Budget:   budget,
		Warmup:   warmup,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}, n, seed, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"mode":"crt","programs":[%q,%q],"psr":true,"n":%d,"seed":%d,"budget":%d,"warmup":%d}`,
		pair[0], pair[1], n, seed, budget, warmup)
	r1, b1 := post(t, ts.URL+"/campaign", body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r1.StatusCode, b1)
	}
	var got rmt.CampaignSummary
	if err := json.Unmarshal(b1, &got); err != nil {
		t.Fatal(err)
	}
	if got.Runs != direct.Runs || got.Detected != direct.Detected ||
		got.Masked != direct.Masked || got.NotFired != direct.NotFired ||
		got.Coverage != direct.Coverage() || got.TotalCycles != direct.TotalCycles {
		t.Fatalf("gen CRT mix campaign response %+v disagrees with direct summary", got)
	}
	for i, res := range direct.Results {
		if got.Outcomes[i] != res.Outcome.String() {
			t.Fatalf("outcome %d = %q, want %q", i, got.Outcomes[i], res.Outcome)
		}
	}

	r2, b2 := post(t, ts.URL+"/campaign", body)
	if r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second gen campaign X-Cache = %q, want hit", r2.Header.Get("X-Cache"))
	}
	if string(b1) != string(b2) {
		t.Fatalf("cached gen campaign served different bytes")
	}
}

// TestGenRunByteEqualsDirect: a single generated kernel through /run is
// byte-identical to the direct facade encoding — Build-side resolution of
// gen names cannot fork server and library behaviour.
func TestGenRunByteEqualsDirect(t *testing.T) {
	name := progen.Name(progen.CorpusSeeds(0xC0FFEE, 1)[0])
	_, ts := newTestServer(t, Config{})
	direct, err := rmt.Run(context.Background(), rmt.Spec{Mode: rmt.SRT, Programs: []string{name}},
		rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResult(direct)
	resp, got := post(t, ts.URL+"/run", runBody("srt", name, tBudget, tWarmup))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Fatalf("/run gen response differs from direct encoding:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestGenUnknownNameRejected: non-canonical gen spellings are 400s, not
// silently-distinct cache keys for the same experiment.
func TestGenUnknownNameRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []string{"gen:", "gen:01", "gen:0x10", "gen:1 "} {
		resp, b := post(t, ts.URL+"/run", runBody("srt", bad, tBudget, tWarmup))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("kernel %q: status %d (%s), want 400", bad, resp.StatusCode, b)
		}
	}
}
