// End-to-end battery for rmtd's serving layer, run under -race in CI:
// byte-equality against the direct facade, cache hit/miss equivalence,
// single-flight dedup under a 100-request stampede, 429 backpressure at
// queue capacity, and graceful drain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/rmt"
)

// Small sizes keep a single request in the low milliseconds.
const (
	tBudget uint64 = 1500
	tWarmup uint64 = 800
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, b := postRaw(url, body)
	return resp, b
}

func runBody(mode, prog string, budget, warmup uint64) string {
	return fmt.Sprintf(`{"mode":%q,"programs":[%q],"budget":%d,"warmup":%d}`, mode, prog, budget, warmup)
}

func TestRunByteEqualsDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	direct, err := rmt.Run(context.Background(), rmt.Spec{Mode: rmt.SRT, Programs: []string{"gcc"}},
		rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResult(direct)

	resp, got := post(t, ts.URL+"/run", runBody("srt", "gcc", tBudget, tWarmup))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if string(got) != string(want) {
		t.Fatalf("/run response differs from direct rmt.Run encoding:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
}

func TestSweepByteEqualsDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{SimParallelism: 4})
	specs := []rmt.Spec{
		{Mode: rmt.Base, Programs: []string{"compress"}},
		{Mode: rmt.SRT, Programs: []string{"compress"}, PSR: true},
	}
	direct, err := rmt.Sweep(context.Background(), specs, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeResults(direct)

	body := fmt.Sprintf(`{"specs":[{"mode":"base","programs":["compress"]},{"mode":"srt","programs":["compress"],"psr":true}],"budget":%d,"warmup":%d}`, tBudget, tWarmup)
	resp, got := post(t, ts.URL+"/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Fatalf("/sweep response differs from direct rmt.Sweep encoding")
	}
}

func snapshotOf(t *testing.T, ts *httptest.Server) *metrics.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metricsz: %v", err)
	}
	return &snap
}

func counter(t *testing.T, snap *metrics.Snapshot, name string, labels metrics.Labels) uint64 {
	t.Helper()
	v, ok := snap.CounterValue(name, labels)
	if !ok {
		t.Fatalf("metric %s%v missing from snapshot", name, labels)
	}
	return v
}

func TestCacheHitMissEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := runBody("srt", "compress", tBudget, tWarmup)

	r1, b1 := post(t, ts.URL+"/run", body)
	r2, b2 := post(t, ts.URL+"/run", body)
	if r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache sequence = %q, %q; want miss, hit", r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if string(b1) != string(b2) {
		t.Fatalf("cache hit served different bytes than the miss that filled it")
	}

	// A differently-spelled JSON body of the same experiment must hit too.
	respelled := fmt.Sprintf(`{"warmup":%d,"budget":%d,"programs":["compress"],"mode":"srt","psr":false}`, tWarmup, tBudget)
	r3, b3 := post(t, ts.URL+"/run", respelled)
	if r3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("reordered body X-Cache = %q, want hit", r3.Header.Get("X-Cache"))
	}
	if string(b3) != string(b1) {
		t.Fatalf("reordered body served different bytes")
	}

	snap := snapshotOf(t, ts)
	lab := metrics.Labels{"endpoint": "run"}
	if got := counter(t, snap, "rmtd_cache_hits_total", nil); got != 2 {
		t.Errorf("cache hits = %d, want 2", got)
	}
	if got := counter(t, snap, "rmtd_cache_misses_total", nil); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := counter(t, snap, "rmtd_computes_total", lab); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
	if got := counter(t, snap, "rmtd_requests_total", lab); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
	if v, ok := snap.Get("rmtd_cache_hit_ratio", nil); !ok || v.Gauge == nil {
		t.Errorf("cache hit ratio gauge missing")
	} else if want := 2.0 / 3.0; *v.Gauge < want-1e-9 || *v.Gauge > want+1e-9 {
		t.Errorf("cache hit ratio = %v, want %v", *v.Gauge, want)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 4})
	body := runBody("srt", "go", tBudget, tWarmup)

	const n = 100
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d read: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d served different bytes than request 0", i)
		}
	}
	if got := s.run.computes.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests computed %d times, want 1", n, got)
	}
}

// gate installs a computeWrap that parks every computation until release
// is closed, announcing each entry on started.
func gate(s *Server) (started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	s.computeWrap = func(key string, compute func() ([]byte, error)) func() ([]byte, error) {
		return func() ([]byte, error) {
			started <- key
			<-release
			return compute()
		}
	}
	return started, release
}

func TestOverload429AtQueueCapacity(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	started, release := gate(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	type reply struct {
		status int
		body   []byte
	}
	fire := func(budget uint64) chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, body := postRaw(ts.URL+"/run", runBody("srt", "ijpeg", budget, tWarmup))
			ch <- reply{resp.StatusCode, body}
		}()
		return ch
	}

	// r1 occupies the single worker (parked inside compute).
	r1 := fire(1001)
	<-started
	// r2 takes the single queue slot.
	r2 := fire(1002)
	waitFor(t, func() bool { return s.lim.depth() == 1 }, "queued request")

	// r3 must be shed immediately.
	resp3, body3 := postRaw(ts.URL+"/run", runBody("srt", "ijpeg", 1003, tWarmup))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (body %s)", resp3.StatusCode, body3)
	}
	if ra := resp3.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	close(release)
	<-started // r2's compute begins once r1 frees the worker
	if rep := <-r1; rep.status != http.StatusOK {
		t.Fatalf("r1 status = %d: %s", rep.status, rep.body)
	}
	if rep := <-r2; rep.status != http.StatusOK {
		t.Fatalf("r2 status = %d: %s", rep.status, rep.body)
	}
	if got := s.run.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestFollowerSurvivesLeaderClientCancel: when a flight leader's client
// disconnects while the leader is queued for admission, concurrent
// identical requests from still-connected clients must not inherit the
// leader's context-canceled error — they retry the flight under their own
// contexts and get the result.
func TestFollowerSurvivesLeaderClientCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	started, release := gate(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	type reply struct {
		status int
		body   []byte
	}

	// r0 occupies the single worker, parked inside compute.
	r0 := make(chan reply, 1)
	go func() {
		resp, body := postRaw(ts.URL+"/run", runBody("srt", "gcc", 1001, tWarmup))
		r0 <- reply{resp.StatusCode, body}
	}()
	<-started

	// The leader posts the flight key with a cancellable client and blocks
	// queued in admission.
	bodyK := runBody("srt", "compress", 1002, tWarmup)
	ctxL, cancelL := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(ctxL, http.MethodPost, ts.URL+"/run", strings.NewReader(bodyK))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.lim.depth() == 1 }, "leader queued for admission")

	// A follower with a live client joins the same flight.
	follower := make(chan reply, 1)
	go func() {
		resp, body := postRaw(ts.URL+"/run", bodyK)
		follower <- reply{resp.StatusCode, body}
	}()
	waitFor(t, func() bool { return s.run.requests.Load() == 3 }, "follower to reach the flight")

	// The leader's client gives up; its context error is its own, not the
	// follower's.
	cancelL()
	<-leaderDone
	close(release) // r0 completes, freeing the worker for the follower's retry

	if rep := <-follower; rep.status != http.StatusOK {
		t.Fatalf("follower after leader cancel: status %d: %s", rep.status, rep.body)
	}
	if rep := <-r0; rep.status != http.StatusOK {
		t.Fatalf("r0 status = %d: %s", rep.status, rep.body)
	}
}

// TestComputeFailureIs500: an internal computation error is the server's
// fault, not the client's.
func TestComputeFailureIs500(t *testing.T) {
	s := New(Config{})
	s.computeWrap = func(key string, compute func() ([]byte, error)) func() ([]byte, error) {
		return func() ([]byte, error) { return nil, errors.New("compute exploded") }
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/run", runBody("srt", "gcc", tBudget, tWarmup))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("compute failure status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if got := s.run.errors.Load(); got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}
}

func postRaw(url, body string) (*http.Response, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(err)
	}
	return resp, b
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //rmtlint:allow determinism — test polling deadline
	for !cond() {
		if time.Now().After(deadline) { //rmtlint:allow determinism — test polling deadline
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGracefulDrainOnShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	started, release := gate(s)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	// An in-flight request parks inside compute.
	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		resp, body := postRaw(base+"/run", runBody("crt", "swim", tBudget, tWarmup))
		inflight <- struct {
			status int
			body   []byte
		}{resp.StatusCode, body}
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Drain mode flips /healthz to 503 (observed through the handler: the
	// listener stops accepting during shutdown).
	waitFor(t, func() bool {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code == http.StatusServiceUnavailable
	}, "healthz to report draining")

	// The in-flight request survives the drain and completes.
	close(release)
	rep := <-inflight
	if rep.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", rep.status, rep.body)
	}
	if len(rep.body) == 0 {
		t.Fatalf("in-flight request served an empty body")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	// The socket is closed: new work is refused, not queued.
	if _, err := http.Post(base+"/run", "application/json", strings.NewReader(runBody("srt", "gcc", tBudget, tWarmup))); err == nil {
		t.Fatalf("request after drain unexpectedly succeeded")
	}
}

func TestCampaignEndpointMatchesDirectAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{SimParallelism: 2})
	const (
		n      = 4
		seed   = 7
		budget = 4000
		warmup = 1500
	)
	direct, err := fault.Campaign(sim.Spec{
		Mode:     sim.ModeSRT,
		Programs: []string{"compress"},
		Budget:   budget,
		Warmup:   warmup,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}, n, seed, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"mode":"srt","programs":["compress"],"psr":true,"n":%d,"seed":%d,"budget":%d,"warmup":%d}`, n, seed, budget, warmup)
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
		t.Fatalf("campaign response %+v disagrees with direct summary", got)
	}
	for i, res := range direct.Results {
		if got.Outcomes[i] != res.Outcome.String() {
			t.Fatalf("outcome %d = %q, want %q", i, got.Outcomes[i], res.Outcome)
		}
	}

	r2, b2 := post(t, ts.URL+"/campaign", body)
	if r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second campaign X-Cache = %q, want hit", r2.Header.Get("X-Cache"))
	}
	if string(b1) != string(b2) {
		t.Fatalf("cached campaign served different bytes")
	}
}

// TestCampaignRunsUnderRequestContext: /campaign computes under the
// request's context, as /run and /sweep do, so a cancelled request stops
// its own campaign (503, counted as rejected) and caches nothing.
func TestCampaignRunsUnderRequestContext(t *testing.T) {
	s := New(Config{Workers: 1})
	started, release := gate(s)
	ctx, cancel := context.WithCancel(context.Background())
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnContext = func(context.Context, net.Conn) context.Context { return ctx }
	ts.Start()
	t.Cleanup(ts.Close)

	reply := make(chan *http.Response, 1)
	go func() {
		resp, _ := postRaw(ts.URL+"/campaign", `{"mode":"srt","programs":["compress"],"n":4}`)
		reply <- resp
	}()
	<-started // parked inside compute, past admission
	cancel()
	close(release)

	if resp := <-reply; resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cancelled campaign status = %d, want 503", resp.StatusCode)
	}
	if got := s.campaign.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if _, _, _, n := s.cache.stats(); n != 0 {
		t.Fatalf("cancelled campaign left %d cache entries", n)
	}
}

// TestCampaignPassesThroughNoStoreComparison: a campaign with
// no_store_comparison=true must be computed with store comparison
// disabled, not silently served the default experiment under a distinct
// cache key.
func TestCampaignPassesThroughNoStoreComparison(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const (
		n      = 4
		seed   = 7
		budget = 4000
		warmup = 1500
	)
	direct, err := fault.Campaign(sim.Spec{
		Mode:              sim.ModeSRT,
		Programs:          []string{"compress"},
		Budget:            budget,
		Warmup:            warmup,
		Config:            pipeline.DefaultConfig(),
		NoStoreComparison: true,
	}, n, seed, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	body := fmt.Sprintf(`{"mode":"srt","programs":["compress"],"no_store_comparison":true,"n":%d,"seed":%d,"budget":%d,"warmup":%d}`, n, seed, budget, warmup)
	resp, b := post(t, ts.URL+"/campaign", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got rmt.CampaignSummary
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Detected != direct.Detected || got.Masked != direct.Masked ||
		got.NotFired != direct.NotFired || got.Coverage != direct.Coverage() ||
		got.TotalCycles != direct.TotalCycles {
		t.Fatalf("nosc campaign response %+v disagrees with direct nosc summary %+v", got, direct)
	}
	for i, res := range direct.Results {
		if got.Outcomes[i] != res.Outcome.String() {
			t.Fatalf("outcome %d = %q, want %q", i, got.Outcomes[i], res.Outcome)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"invalid json", "/run", `{"mode":`, http.StatusBadRequest},
		{"unknown mode", "/run", `{"mode":"turbo","programs":["gcc"]}`, http.StatusBadRequest},
		{"unknown kernel", "/run", `{"mode":"srt","programs":["notakernel"]}`, http.StatusBadRequest},
		{"no programs", "/run", `{"mode":"srt","programs":[]}`, http.StatusBadRequest},
		{"unknown field", "/run", `{"mode":"srt","programs":["gcc"],"bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", "/run", `{"mode":"srt","programs":["gcc"]} extra`, http.StatusBadRequest},
		{"empty sweep", "/sweep", `{"specs":[]}`, http.StatusBadRequest},
		{"campaign non-rmt mode", "/campaign", `{"mode":"base","programs":["gcc"],"n":4}`, http.StatusBadRequest},
		{"campaign zero trials", "/campaign", `{"mode":"srt","programs":["gcc"],"n":0}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not the JSON error envelope", body)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run status = %d, want 405", resp.StatusCode)
	}
}

func TestClientHelpersRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := rmt.NewClient(ts.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	spec := rmt.Spec{Mode: rmt.SRT, Programs: []string{"li"}, PSR: true}
	direct, err := rmt.Run(context.Background(), spec, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx, spec, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatalf("client Run: %v", err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Fatalf("client Run result differs from direct rmt.Run:\ngot  %+v\nwant %+v", got, direct)
	}

	specs := []rmt.Spec{
		{Mode: rmt.Base, Programs: []string{"li"}},
		{Mode: rmt.SRT, Programs: []string{"li"}},
	}
	directSweep, err := rmt.Sweep(context.Background(), specs, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatal(err)
	}
	gotSweep, err := c.Sweep(ctx, specs, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
	if err != nil {
		t.Fatalf("client Sweep: %v", err)
	}
	if !reflect.DeepEqual(gotSweep, directSweep) {
		t.Fatalf("client Sweep results differ from direct rmt.Sweep")
	}

	sum, err := c.Campaign(ctx, rmt.CampaignSpec{
		Spec: rmt.Spec{Mode: rmt.SRT, Programs: []string{"compress"}, PSR: true},
		N:    3, Seed: 11,
	}, rmt.WithBudget(3000), rmt.WithWarmup(1000))
	if err != nil {
		t.Fatalf("client Campaign: %v", err)
	}
	if sum.Runs != 3 || len(sum.Outcomes) != 3 {
		t.Fatalf("campaign summary %+v, want 3 runs with 3 outcomes", sum)
	}

	// The Runner seam: the identical campaign through the in-process
	// engine and through the daemon client yields the identical summary,
	// so call sites can swap backends freely.
	for _, rn := range []rmt.Runner{rmt.Local{}, c} {
		got, err := rn.Campaign(ctx, rmt.CampaignSpec{
			Spec: rmt.Spec{Mode: rmt.SRT, Programs: []string{"compress"}, PSR: true},
			N:    3, Seed: 11,
		}, rmt.WithBudget(3000), rmt.WithWarmup(1000))
		if err != nil {
			t.Fatalf("Runner %T Campaign: %v", rn, err)
		}
		if !reflect.DeepEqual(got, sum) {
			t.Fatalf("Runner %T campaign summary differs:\ngot  %+v\nwant %+v", rn, got, sum)
		}
	}

	// The client's private wire form and the server's own request types
	// must spell every mode and knob alike: for each mode with the knobs
	// it reads set, a Client request and the same request posted as a
	// RunRequest or CampaignRequest share one cache entry. The runs warm
	// up for tWarmup+1 instructions so their keys stay apart from the
	// requests above and the hit can only come from the client's request.
	for _, m := range sim.Modes() {
		spec := rmt.Spec{Mode: m, Programs: []string{"li"}, PSR: true,
			CheckerLatency: 8, AdaptiveThreshold: 0.5, CheckpointInterval: 512}.Canonical()
		wire := SpecWire{
			Mode: m.String(), Programs: spec.Programs, PSR: spec.PSR,
			PerThreadSQ: spec.PerThreadSQ, NoStoreComparison: spec.NoStoreComparison,
			CheckerLatency: spec.CheckerLatency, AdaptiveThreshold: spec.AdaptiveThreshold,
			CheckpointInterval: spec.CheckpointInterval,
		}
		t.Run(m.String(), func(t *testing.T) {
			direct, err := rmt.Run(ctx, spec, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup+1))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Run(ctx, spec, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup+1))
			if err != nil {
				t.Fatalf("client Run: %v", err)
			}
			if !reflect.DeepEqual(got, direct) {
				t.Fatalf("client Run result differs from direct rmt.Run:\ngot  %+v\nwant %+v", got, direct)
			}
			body, err := json.Marshal(RunRequest{SpecWire: wire, Budget: tBudget, Warmup: tWarmup + 1})
			if err != nil {
				t.Fatal(err)
			}
			resp, b := post(t, ts.URL+"/run", string(body))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("RunRequest after the client's /run: status %d, X-Cache %q, want a hit", resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			if string(b) != string(EncodeResult(direct)) {
				t.Fatalf("RunRequest served bytes differ from the direct encoding")
			}

			if !m.Paired() {
				return
			}
			cs := rmt.CampaignSpec{Spec: spec, N: 3, Seed: 5}
			sum, err := c.Campaign(ctx, cs, rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup))
			if err != nil {
				t.Fatalf("client Campaign: %v", err)
			}
			body, err = json.Marshal(CampaignRequest{SpecWire: wire, N: cs.N, Seed: cs.Seed, Budget: tBudget, Warmup: tWarmup})
			if err != nil {
				t.Fatal(err)
			}
			resp, b = post(t, ts.URL+"/campaign", string(body))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("CampaignRequest after the client's /campaign: status %d, X-Cache %q, want a hit", resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			var served rmt.CampaignSummary
			if err := json.Unmarshal(b, &served); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&served, sum) {
				t.Fatalf("CampaignRequest served %+v, client got %+v", served, sum)
			}
		})
	}

	mb, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("client Metrics: %v", err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("client Metrics returned unparseable snapshot: %v", err)
	}
	if _, ok := snap.CounterValue("rmtd_requests_total", metrics.Labels{"endpoint": "run"}); !ok {
		t.Fatalf("snapshot lacks rmtd_requests_total{endpoint=run}")
	}
}

func TestClientSeesRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1, RetryAfter: 2 * time.Second})
	started, release := gate(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		postRaw(ts.URL+"/run", runBody("srt", "perl", 1001, tWarmup))
	}()
	<-started

	c := rmt.NewClient(ts.URL)
	_, err := c.Run(context.Background(), rmt.Spec{Mode: rmt.SRT, Programs: []string{"perl"}},
		rmt.WithBudget(1002), rmt.WithWarmup(tWarmup))
	var ra *rmt.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("overloaded client error = %v, want *rmt.RetryAfterError", err)
	}
	if ra.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", ra.RetryAfter)
	}
	close(release)
	<-done
}

// TestListenAndServeRoundTrip exercises the real-socket path cmd/rmtd
// uses: bind :0, learn the address through the ready callback, serve one
// request over TCP, shut down cleanly.
func TestListenAndServeRoundTrip(t *testing.T) {
	s := New(Config{Workers: 1})
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe("127.0.0.1:0", func(a net.Addr) { ready <- a }) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("ListenAndServe failed before binding: %v", err)
	}
	base := "http://" + addr.String()
	resp, b := postRaw(base+"/run", runBody("srt", "compress", tBudget, tWarmup))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run over TCP: %d %s", resp.StatusCode, b)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("ListenAndServe returned %v, want http.ErrServerClosed", err)
	}
}

// TestShutdownBeforeServe: a server that never served drains trivially,
// and a Serve that loses the race with Shutdown refuses to run (closing
// its listener) instead of serving forever — cmd/rmtd waits on Serve's
// error after Shutdown, so this is what keeps an early signal from
// hanging the daemon.
func TestShutdownBeforeServe(t *testing.T) {
	s := New(Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown of never-served server: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve after Shutdown returned %v, want http.ErrServerClosed", err)
	}
}
