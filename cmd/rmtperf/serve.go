package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/progen" //rmtlint:allow layering — seeded generated-kernel names for the request mix
	"repro/internal/server" //rmtlint:allow layering — the workload serves rmtd's own handler in-process and encodes direct results with its wire encoders
	"repro/rmt"
)

// The traffic shape is assumed, not measured: the repository holds no rmtd
// request log. The rate, the Zipf exponent (serveZipf), the key count, the
// endpoint split (requestGen) and the warm/cold split are the values the
// workload was specified with; replace them when measured traffic exists.
const (
	// serveRate is the open-loop arrival rate in requests per second.
	serveRate = 60.0
	// serveZipf is the skew of warm key popularity.
	serveZipf = 1.1
	// serveWarmKeys is the size of the repeated key set, filled in setup.
	serveWarmKeys = 32
	// serveColdEvery places one cold request in every block of this many.
	serveColdEvery = 10
	// serveConns bounds the load generator's connections.
	serveConns = 2
)

// serveReq is one request: its endpoint and body, and for cold requests a
// direct call producing the bytes the server must answer with.
type serveReq struct {
	path   string
	body   []byte
	direct func(ctx context.Context) ([]byte, error)
}

var serve = &workload{
	name:  "serve",
	why:   "open loop over 2 connections against in-process rmtd, assumed traffic (no rmtd log to measure): Poisson 60 req/s, 9/10 warm Zipf(1.1) repeats of 32 seeded cached keys, 1/10 cold keys that simulate",
	setup: setupServe,
}

// serveRun is one set-up of the serve workload: a listening server, the
// load generator's client and the warm key set.
type serveRun struct {
	s         *recorder
	srv       *server.Server
	serveDone chan error
	transport *http.Transport
	client    *http.Client
	base      string

	warm     []serveReq
	warmBody [][]byte
	rank     []int // Zipf rank -> warm key
	coldGen  *requestGen

	phase int64
	cold  uint64    // never-repeated key counter, across phases
	last  []*served // the last phase's requests, for after
}

func setupServe(s *recorder) (*prepared, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	sr := &serveRun{
		s: s, srv: server.New(server.Config{}), serveDone: make(chan error, 1),
		transport: transport, client: &http.Client{Transport: transport, Timeout: 60 * time.Second},
		base:    "http://" + l.Addr().String(),
		coldGen: &requestGen{r: rand.New(rand.NewSource(int64(mix(s.cfg.seed, 2<<20))))},
	}
	go func() { sr.serveDone <- sr.srv.Serve(l) }()
	if err := sr.fillWarm(); err != nil {
		sr.close()
		return nil, err
	}
	return &prepared{measure: sr.measure, after: sr.after, close: sr.close}, nil
}

func (sr *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sr.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(sr.s.log, "rmtperf: serve shutdown: %v\n", err)
	}
	<-sr.serveDone
	sr.transport.CloseIdleConnections()
}

// fillWarm computes the warm key set over both connections. These keys
// are then only ever served from the cache, and every later response for
// them must match these bytes; their digest is the workload's.
func (sr *serveRun) fillWarm() error {
	gen := &requestGen{r: rand.New(rand.NewSource(int64(mix(sr.s.cfg.seed, 1<<20))))}
	sr.warm = make([]serveReq, serveWarmKeys)
	for i := range sr.warm {
		sr.warm[i] = gen.request(i%4, 0, false)
	}
	sr.warmBody = make([][]byte, serveWarmKeys)
	errs := make([]error, serveWarmKeys)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < serveWarmKeys; i += serveConns {
				body, status, _, err := post(sr.client, sr.base, sr.warm[i])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				sr.warmBody[i], errs[i] = body, err
			}
		}()
	}
	wg.Wait()
	h := sha256.New()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("warm key %d: %w", i, err)
		}
		h.Write(sr.warmBody[i])
	}
	sr.s.setDigest(hex.EncodeToString(h.Sum(nil)))
	sr.rank = gen.r.Perm(serveWarmKeys)
	return nil
}

// schedule draws one phase's requests and their send times: arrivals of
// a Poisson process at serveRate conditioned on their count (sorted
// uniform times), one cold request at a random place in every block of
// serveColdEvery, and every four cold requests two /run, one /sweep and
// one /campaign in seeded order.
func (sr *serveRun) schedule(window time.Duration) ([]*served, []time.Duration) {
	sr.phase++
	r := rand.New(rand.NewSource(int64(mix(sr.s.cfg.seed, uint64(sr.phase)))))
	zipf := rand.NewZipf(r, serveZipf, 1, serveWarmKeys-1)
	n := max(int(serveRate*window.Seconds()), serveColdEvery)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Int63n(int64(window)))
	}
	slices.Sort(at)
	reqs := make([]*served, n)
	var kinds []int
	for b := 0; b < n; b += serveColdEvery {
		coldAt := b + r.Intn(min(serveColdEvery, n-b))
		for i := b; i < min(b+serveColdEvery, n); i++ {
			if i != coldAt {
				k := sr.rank[zipf.Uint64()]
				reqs[i] = &served{req: sr.warm[k], want: sr.warmBody[k]}
				continue
			}
			if len(kinds) == 0 {
				kinds = []int{0, 1, 2, 3}
				r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
			}
			sr.cold++
			reqs[i] = &served{req: sr.coldGen.request(kinds[0], sr.cold, true), cold: true}
			kinds = kinds[1:]
		}
	}
	return reqs, at
}

// measure sends one phase's requests on schedule, each from its own
// goroutine so a slow response never delays a later send, and records
// every latency from the request's scheduled send time.
func (sr *serveRun) measure(window time.Duration) error {
	s := sr.s
	reqs, at := sr.schedule(window)
	s.count("serve.requests", float64(len(reqs)))
	start := now()
	var wg sync.WaitGroup
	var tracks lanes
	for i, q := range reqs {
		due := start.Add(at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		q.late = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tracks.acquire()
			defer tracks.release(lane)
			sp := s.begin("serve"+q.req.path, lane, 0, int64(i))
			q.body, q.status, q.cache, q.err = post(sr.client, sr.base, q.req)
			sp.end()
			q.latency = time.Since(due)
		}()
	}
	wg.Wait()

	var warmLat, coldLat, late []float64
	counts := map[string]float64{}
	for i, q := range reqs {
		late = append(late, ms(q.late))
		err := q.err
		if err == nil && q.status != http.StatusOK {
			counts["rejected"]++
			err = fmt.Errorf("serve %s: status %d: %s", q.req.path, q.status, bytes.TrimSpace(q.body))
		}
		if err == nil && !q.cold && !bytes.Equal(q.body, q.want) {
			err = fmt.Errorf("serve %s: warm response differs from the body computed in set-up", q.req.path)
		}
		counts[q.cache]++
		s.op(strconv.Itoa(i), q.latency, err)
		if err != nil {
			continue
		}
		s.addWork(1)
		if q.cold {
			coldLat = append(coldLat, ms(q.latency))
		} else {
			warmLat = append(warmLat, ms(q.latency))
		}
	}
	s.set("server.hits", counts["hit"])
	s.set("server.misses", counts["miss"])
	s.set("server.dedup", counts["dedup"])
	s.set("server.rejected", counts["rejected"])
	if counts["hit"]+counts["miss"] > 0 {
		s.set("server.hit_ratio", counts["hit"]/(counts["hit"]+counts["miss"]))
	}
	warm99, cold90, late99 := quantile(warmLat, 0.99), quantile(coldLat, 0.9), quantile(late, 0.99)
	s.set("serve.warm_p50_ms", quantile(warmLat, 0.5))
	s.set("serve.warm_p99_ms", warm99)
	s.set("serve.cold_p50_ms", quantile(coldLat, 0.5))
	s.set("serve.cold_p90_ms", cold90)
	s.set("loadgen.late_p99_ms", late99)
	if late99 > 10 {
		fmt.Fprintf(s.log, "rmtperf: serve: load generator ran %.1f ms late at p99; latencies from this run overstate the server's\n", late99)
	}
	fmt.Fprintf(s.out, "serve.slo_met %v (warm p99 %.3f ms <= 10 ms, cold p90 %.1f ms <= 2000 ms)\n",
		warm99 <= 10 && cold90 <= 2000, warm99, cold90)
	sr.last = reqs
	return nil
}

// after recomputes every cold response of the last phase by calling the
// facade directly, outside the measured window: the served bytes must
// equal the direct result's encoding. The recompute times give the
// server's compute and overhead shares of cold latency.
func (sr *serveRun) after(bool) {
	var colds []*served
	for _, q := range sr.last {
		if q.cold && q.err == nil && q.status == http.StatusOK {
			colds = append(colds, q)
		}
	}
	compute := make([]float64, len(colds))
	errs := make([]error, len(colds))
	next := make(chan int)
	go func() {
		for j := range colds {
			next <- j
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t := now()
				want, err := colds[j].req.direct(context.Background())
				compute[j] = ms(time.Since(t))
				if err == nil && !bytes.Equal(want, colds[j].body) {
					err = fmt.Errorf("serve %s: cold response differs from a direct call's result", colds[j].req.path)
				}
				errs[j] = err
			}
		}()
	}
	wg.Wait()
	overhead := make([]float64, len(colds))
	for j, q := range colds {
		sr.s.verify(errs[j])
		overhead[j] = ms(q.latency) - compute[j]
	}
	sr.s.set("server.compute_ms_p50", median(compute))
	sr.s.set("server.overhead_ms_p50", median(overhead))
}

// served is one request's schedule and outcome.
type served struct {
	req     serveReq
	cold    bool
	want    []byte // warm: the setup body
	late    time.Duration
	latency time.Duration // from the scheduled send time
	body    []byte
	status  int
	cache   string
	err     error
}

func post(client *http.Client, base string, q serveReq) (body []byte, status int, cache string, err error) {
	resp, err := client.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// requestGen draws requests. Each endpoint cycles through its modes in a
// fixed order, so every seed offers the same mode mix and comparable cost;
// kernels, knobs and campaign seeds are drawn from r.
type requestGen struct {
	r    *rand.Rand
	next [4]int // per-kind position in the mode cycle
}

// request draws one request. kind 0 and 1 are /run, 2 /sweep and 3
// /campaign (the 50/25/25 mix). A cold request is made unique by
// `unique` (its warmup length) and sized to compute in tens of
// milliseconds; warm ones are smaller, since the window never computes
// them.
func (g *requestGen) request(kind int, unique uint64, cold bool) serveReq {
	budget, warmup := uint64(2000), uint64(1000)
	if cold {
		budget, warmup = 6000, 3000+unique
	}
	switch kind {
	case 2:
		specs := []rmt.Spec{g.spec(kind, false), g.spec(kind, false)}
		wire := server.SweepRequest{Budget: budget, Warmup: warmup}
		for _, sp := range specs {
			wire.Specs = append(wire.Specs, toWire(sp))
		}
		return serveReq{path: "/sweep", body: mustJSON(wire), direct: func(ctx context.Context) ([]byte, error) {
			res, err := rmt.Sweep(ctx, specs, rmt.WithBudget(budget), rmt.WithWarmup(warmup), rmt.WithParallelism(1))
			if err != nil {
				return nil, err
			}
			return server.EncodeResults(res), nil
		}}
	case 3:
		spec := g.spec(kind, true)
		n := 8
		if cold {
			n += g.r.Intn(17)
		}
		seed := g.r.Uint64()
		wire := server.CampaignRequest{SpecWire: toWire(spec), N: n, Seed: seed, Budget: budget, Warmup: warmup}
		return serveReq{path: "/campaign", body: mustJSON(wire), direct: func(ctx context.Context) ([]byte, error) {
			sum, err := rmt.Campaign(ctx, rmt.CampaignSpec{Spec: spec, N: n, Seed: seed},
				rmt.WithBudget(budget), rmt.WithWarmup(warmup), rmt.WithParallelism(1))
			if err != nil {
				return nil, err
			}
			return indentJSON(sum), nil
		}}
	}
	spec := g.spec(0, false)
	wire := server.RunRequest{SpecWire: toWire(spec), Budget: budget, Warmup: warmup}
	return serveReq{path: "/run", body: mustJSON(wire), direct: func(ctx context.Context) ([]byte, error) {
		res, err := rmt.Run(ctx, spec, rmt.WithBudget(budget), rmt.WithWarmup(warmup))
		if err != nil {
			return nil, err
		}
		return server.EncodeResult(res), nil
	}}
}

// spec takes the next mode in the endpoint's cycle (a campaign-capable one
// when campaign is set) and draws a registry or generated kernel (from the
// pinned pool, see genCorpus) and the knobs that mode reads. Knobs the
// mode ignores stay zero, which is the server's canonical form.
func (g *requestGen) spec(kind int, campaign bool) rmt.Spec {
	modes := rmt.Modes()
	if campaign {
		modes = []rmt.Mode{rmt.SRT, rmt.CRT, rmt.SRTR, rmt.Adaptive}
	}
	if kind == 1 {
		kind = 0 // both /run kinds share one cycle
	}
	spec := rmt.Spec{Mode: modes[g.next[kind]%len(modes)], PSR: g.r.Intn(2) == 0}
	g.next[kind]++
	r := g.r
	if r.Intn(2) == 0 {
		k := rmt.Kernels()
		spec.Programs = []string{k[r.Intn(len(k))]}
	} else {
		spec.Programs = []string{progen.Name(progen.CorpusSeeds(genCorpus, genPool)[r.Intn(genPool)])}
	}
	switch spec.Mode {
	case rmt.Lockstep:
		spec.CheckerLatency = 8 * uint64(r.Intn(2))
	case rmt.Adaptive:
		spec.AdaptiveThreshold = 0.25 * float64(1+r.Intn(3))
	case rmt.SRTR:
		spec.CheckpointInterval = 512 << r.Intn(2)
	}
	return spec
}

func toWire(s rmt.Spec) server.SpecWire {
	return server.SpecWire{
		Mode: s.Mode.String(), Programs: s.Programs, PSR: s.PSR, PerThreadSQ: s.PerThreadSQ,
		NoStoreComparison: s.NoStoreComparison, CheckerLatency: s.CheckerLatency,
		AdaptiveThreshold: s.AdaptiveThreshold, CheckpointInterval: s.CheckpointInterval,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixed request structs of strings and numbers: cannot fail
	}
	return b
}

// indentJSON encodes v the way rmtd writes response bodies.
func indentJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // a campaign summary of numbers and strings: cannot fail
	}
	return append(b, '\n')
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
