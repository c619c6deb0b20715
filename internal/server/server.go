// Package server is rmtd's serving layer: a long-lived HTTP/JSON daemon
// over the rmt facade. It turns the batch experiment engine into a
// cache-fronted service:
//
//   - POST /run      one simulation (rmt.Run), canonical-keyed and cached
//   - POST /sweep    independent simulations (rmt.Sweep), results in input order
//   - POST /campaign a deterministic fault-injection campaign (rmt.Campaign)
//   - GET  /healthz  liveness (503 while draining)
//   - GET  /metricsz the server's internal/metrics registry snapshot
//
// Requests are canonicalised into a content-addressed key (wire.go), so
// identical experiments — however their JSON is spelled — are computed
// once: an LRU cache serves repeats from memory, a single-flight group
// collapses concurrent duplicates onto one computation, and a bounded
// worker pool with a queue-depth admission limiter sheds overload as
// 429 + Retry-After instead of collapsing. Simulation results are pure
// functions of the canonical request, which is what makes serving cached
// bytes sound: a hit is byte-identical to a recompute.
//
// Shutdown drains: the listener closes immediately, in-flight requests
// run to completion, /healthz flips to 503.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/rmt"
)

// Config sizes a Server. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Workers bounds concurrently executing simulation requests
	// (default 2).
	Workers int
	// QueueDepth bounds requests waiting for a worker; beyond it the
	// server answers 429 (0 = default 8; negative = no queueing, shed
	// whenever every worker is busy).
	QueueDepth int
	// CacheEntries bounds the result cache (default 512 entries).
	CacheEntries int
	// SimParallelism fans one sweep's or campaign's internal jobs across
	// this many goroutines (default 1: request-level concurrency comes
	// from Workers). Results never depend on it.
	SimParallelism int
	// RetryAfter is the Retry-After hint on 429 responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.SimParallelism <= 0 {
		c.SimParallelism = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// latencyHist is a race-safe log2 latency histogram: bucket i counts
// requests whose wall latency in microseconds has bit-length i (so bucket
// boundaries double, 1µs..~1h), with the last bucket absorbing the tail.
type latencyHist struct {
	buckets    [32]atomic.Uint64
	total, sum atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bits.Len64(us)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.total.Add(1)
	h.sum.Add(us)
}

func (h *latencyHist) value() metrics.HistogramValue {
	v := metrics.HistogramValue{Buckets: make([]uint64, len(h.buckets))}
	for i := range h.buckets {
		v.Buckets[i] = h.buckets[i].Load()
	}
	v.Total = h.total.Load()
	v.Sum = h.sum.Load()
	return v
}

// endpointStats is the per-endpoint instrument block.
type endpointStats struct {
	requests atomic.Uint64
	computes atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	latency  latencyHist
}

// Server is one rmtd instance.
type Server struct {
	cfg    Config
	cache  *lruCache
	flight *flightGroup
	lim    *limiter
	reg    *metrics.Registry
	mux    *http.ServeMux

	requests atomic.Uint64 // all endpoints; doubles as the /metricsz snapshot ordinal
	draining atomic.Bool

	run, sweep, campaign endpointStats

	httpServer *http.Server

	// computeWrap, when non-nil, wraps every cache-miss computation; the
	// test battery uses it to gate and observe computes. Never set in
	// production.
	computeWrap func(key string, compute func() ([]byte, error)) func() ([]byte, error)
}

// New builds a Server ready to serve via Handler, Serve or
// ListenAndServe.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  newLRUCache(cfg.CacheEntries),
		flight: newFlightGroup(),
		lim:    newLimiter(cfg.Workers, cfg.QueueDepth),
		reg:    metrics.New(),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/campaign", s.handleCampaign)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	// Built here, not in Serve: Shutdown may run from another goroutine
	// before Serve (cmd/rmtd serves from a goroutine while main waits on
	// signals), and it must always see a valid pointer so an early signal
	// stops the server instead of racing a nil check.
	s.httpServer = &http.Server{Handler: s.mux}
	s.registerMetrics()
	return s
}

// registerMetrics wires the server's counters into an internal/metrics
// registry; every reader is an atomic load, so /metricsz is race-safe
// against in-flight handlers.
func (s *Server) registerMetrics() {
	s.reg.Gauge("rmtd_queue_depth", nil, func() float64 { return float64(s.lim.depth()) })
	s.reg.Gauge("rmtd_in_flight", nil, func() float64 { return float64(s.lim.inFlight()) })
	s.reg.Gauge("rmtd_cache_entries", nil, func() float64 {
		_, _, _, n := s.cache.stats()
		return float64(n)
	})
	s.reg.Counter("rmtd_cache_hits_total", nil, func() uint64 { h, _, _, _ := s.cache.stats(); return h })
	s.reg.Counter("rmtd_cache_misses_total", nil, func() uint64 { _, m, _, _ := s.cache.stats(); return m })
	s.reg.Counter("rmtd_cache_evictions_total", nil, func() uint64 { _, _, e, _ := s.cache.stats(); return e })
	s.reg.Gauge("rmtd_cache_hit_ratio", nil, func() float64 {
		h, m, _, _ := s.cache.stats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	for _, ep := range []struct {
		name string
		st   *endpointStats
	}{
		{"run", &s.run}, {"sweep", &s.sweep}, {"campaign", &s.campaign},
	} {
		st := ep.st
		labels := metrics.Labels{"endpoint": ep.name}
		s.reg.Counter("rmtd_requests_total", labels, st.requests.Load)
		s.reg.Counter("rmtd_computes_total", labels, st.computes.Load)
		s.reg.Counter("rmtd_errors_total", labels, st.errors.Load)
		s.reg.Counter("rmtd_rejected_total", labels, st.rejected.Load)
		s.reg.Histogram("rmtd_request_latency_us", labels, st.latency.value)
	}
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean drain, like net/http. If Shutdown
// already ran, Serve closes l and returns http.ErrServerClosed
// immediately.
func (s *Server) Serve(l net.Listener) error {
	return s.httpServer.Serve(l)
}

// ListenAndServe binds addr and serves. The returned listener address is
// reported through ready (if non-nil) once the socket is bound — cmd/rmtd
// prints it, and tests bind ":0".
func (s *Server) ListenAndServe(addr string, ready func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(l.Addr())
	}
	return s.Serve(l)
}

// Shutdown stops accepting new connections and drains in-flight requests
// (bounded by ctx). /healthz answers 503 from the first call onward, so
// load balancers stop routing while the drain runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.httpServer.Shutdown(ctx)
}

// httpError is the JSON error body.
type httpError struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(encodeJSON(httpError{Error: err.Error()}))
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Method != http.MethodPost {
		return nil, errMethod
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

var errMethod = errors.New("use POST with a JSON body")

// serveCached is the shared request path: canonical key → single-flight
// → cache → admission → compute → cache fill. The cache probe happens
// inside the flight so a leader finishing between another request's probe
// and its flight join can never trigger a recompute. compute must be a
// pure function of the canonical request.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, st *endpointStats, key string, compute func() ([]byte, error)) {
	st.requests.Add(1)
	s.requests.Add(1)
	t0 := time.Now() //rmtlint:allow determinism — request latency metric; never reaches a response body
	defer func() { st.latency.observe(time.Since(t0)) }()

	// state is written only inside the flight closure, which runs on this
	// goroutine iff this request is the leader; followers keep "dedup".
	state := "dedup"
	b, err, _ := s.flight.do(key, func() ([]byte, error) {
		if b, ok := s.cache.get(key); ok {
			state = "hit"
			return b, nil
		}
		if err := s.lim.acquire(r.Context()); err != nil {
			return nil, err
		}
		defer s.lim.release()
		state = "miss"
		st.computes.Add(1)
		if s.computeWrap != nil {
			compute = s.computeWrap(key, compute)
		}
		out, err := compute()
		if err != nil {
			return nil, err
		}
		s.cache.put(key, out)
		return out, nil
	})
	switch {
	case err == nil:
		writeResult(w, b, state)
	case errors.Is(err, errOverloaded):
		st.rejected.Add(1)
		s.writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.rejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, err)
	default:
		// Validation failed in the parse step before serveCached, so
		// anything left is the computation itself failing: a server-side
		// error, not the client's.
		st.errors.Add(1)
		s.writeError(w, http.StatusInternalServerError, err)
	}
}

func writeResult(w http.ResponseWriter, b []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Write(b)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	req, spec, key, err := parseRun(body)
	if err != nil {
		s.run.errors.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveCached(w, r, &s.run, key, func() ([]byte, error) {
		res, err := rmt.Run(r.Context(), spec, rmt.WithBudget(req.Budget), rmt.WithWarmup(req.Warmup))
		if err != nil {
			return nil, err
		}
		return EncodeResult(res), nil
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	req, specs, key, err := parseSweep(body)
	if err != nil {
		s.sweep.errors.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveCached(w, r, &s.sweep, key, func() ([]byte, error) {
		results, err := rmt.Sweep(r.Context(), specs,
			rmt.WithBudget(req.Budget), rmt.WithWarmup(req.Warmup),
			rmt.WithParallelism(s.cfg.SimParallelism))
		if err != nil {
			return nil, err
		}
		return EncodeResults(results), nil
	})
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	req, cs, key, err := parseCampaign(body)
	if err != nil {
		s.campaign.errors.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.serveCached(w, r, &s.campaign, key, func() ([]byte, error) {
		sum, err := rmt.Campaign(r.Context(), cs,
			rmt.WithBudget(req.Budget), rmt.WithWarmup(req.Warmup),
			rmt.WithParallelism(s.cfg.SimParallelism))
		if err != nil {
			return nil, err
		}
		return encodeJSON(sum), nil
	})
}

func statusFor(err error) int {
	if errors.Is(err, errMethod) {
		return http.StatusMethodNotAllowed
	}
	return http.StatusBadRequest
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetricsz serves the metrics registry snapshot. The snapshot
// "cycle" is the total request count — a monotonic ordinal standing in
// for the simulation cycle the registry was designed around.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.Snapshot(s.requests.Load()).WriteJSON(w); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
	}
}
