package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// now is the benchmark's one wall-clock read.
func now() time.Time {
	//rmtlint:allow determinism — host time is what this command measures; no simulated output reads it
	return time.Now()
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason the workload exists, as BENCHMARK.json
	// states it.
	why string
	// setup builds one run's inputs from the run's seed and returns the
	// measured body. It runs several times per run (setup_s is their
	// median); only the last result is measured.
	setup func(s *recorder) (*prepared, error)
}

// prepared is a set-up workload.
type prepared struct {
	// measure runs the operations that fill a window of the given length
	// on the reference host, recording each through the recorder. It may be
	// called more than once (a traced run measures an untraced and a traced
	// phase) and returns an error only when the harness itself cannot
	// continue; failed operations are recorded.
	measure func(window time.Duration) error
	// after, when set, runs after each measured phase, outside its timing
	// and profile: output checks that recompute results, and probes that
	// belong only to a traced run.
	after func(traced bool)
	// close releases what setup acquired (listeners, goroutines).
	close func()
}

// runConfig is one run's parameters.
type runConfig struct {
	seed     uint64
	window   time.Duration
	traced   bool
	traceDir string
	// smoke shrinks every workload to test size and skips the golden and
	// committed-digest comparisons, which hold only at full size.
	smoke  bool
	setups int
}

// recorder carries one run's measurements. Workloads record operations,
// output checks, work done and per-layer values through it; everything is
// safe for concurrent use.
type recorder struct {
	cfg runConfig
	out io.Writer // report lines (stdout)
	log io.Writer // diagnostics (stderr)

	mu        sync.Mutex
	lat       map[string]float64 // fastest latency in ms per operation, current phase
	work      float64            // the workload's units of work, current phase
	attempted int
	failed    int
	layer     map[string]float64       // per-layer values, current phase
	counts    map[string]float64       // exact counts; first value wins
	timers    map[string]time.Duration // summed span time per name, current phase
	digest    string
	spans     *spanLog // non-nil during a traced phase
	nextID    atomic.Int64
}

func newRecorder(cfg runConfig, out, log io.Writer) *recorder {
	return &recorder{
		cfg: cfg, out: out, log: log,
		lat: map[string]float64{}, layer: map[string]float64{}, counts: map[string]float64{}, timers: map[string]time.Duration{},
	}
}

// op records one operation: its latency when it succeeded, a failure
// otherwise. key names the operation; when a run repeats an operation
// (a later pass over the same inputs) only its fastest latency counts, so
// host interference, which only ever slows an operation, is filtered out.
func (s *recorder) op(key string, d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failLocked(err)
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	if prev, ok := s.lat[key]; !ok || ms < prev {
		s.lat[key] = ms
	}
}

// verify records one output check that is not tied to a single operation.
func (s *recorder) verify(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failLocked(err)
	}
}

func (s *recorder) failLocked(err error) {
	s.failed++
	if s.failed <= 10 {
		fmt.Fprintf(s.log, "rmtperf: FAIL %v\n", err)
	}
}

func (s *recorder) addWork(x float64) {
	s.mu.Lock()
	s.work += x
	s.mu.Unlock()
}

// set records a per-layer value for the current phase.
func (s *recorder) set(name string, v float64) {
	s.mu.Lock()
	s.layer[name] = v
	s.mu.Unlock()
}

// count records an exact count; the first value recorded in a run wins,
// so it covers the first complete pass over the workload's inputs.
func (s *recorder) count(name string, v float64) {
	s.mu.Lock()
	if _, ok := s.counts[name]; !ok {
		s.counts[name] = v
	}
	s.mu.Unlock()
}

// setDigest records the sha256 of the workload's canonical output.
func (s *recorder) setDigest(hex string) {
	s.mu.Lock()
	if s.digest == "" {
		s.digest = hex
	}
	s.mu.Unlock()
}

// openSpan is a span being timed.
type openSpan struct {
	s  *recorder
	sp span
	t0 time.Time
}

// begin starts timing a call; end stops it, adds its duration to the
// per-name timer and, in a traced phase, keeps the span.
func (s *recorder) begin(name string, lane int, parent, req int64) *openSpan {
	return &openSpan{s: s, sp: span{ID: s.nextID.Add(1), Parent: parent, Req: req, Name: name, Lane: lane}, t0: now()}
}

func (o *openSpan) end() time.Duration {
	d := time.Since(o.t0)
	s := o.s
	s.mu.Lock()
	s.timers[o.sp.Name] += d
	log := s.spans
	s.mu.Unlock()
	if log != nil {
		o.sp.Start = o.t0.Sub(log.origin)
		o.sp.End = o.sp.Start + d
		log.add(o.sp)
	}
	return d
}

func (s *recorder) timer(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timers[name].Seconds()
}

func (p *prepared) finish(traced bool) {
	if p.after != nil {
		p.after(traced)
	}
}

// phaseStats is what one measured window produced.
type phaseStats struct {
	lat       []float64
	work, cpu float64
}

// phase measures one window: CPU, operations, work, and the collector's
// cycles and allocated bytes as per-layer values.
func (s *recorder) phase(p *prepared, d time.Duration) (phaseStats, error) {
	s.mu.Lock()
	s.lat, s.work = map[string]float64{}, 0
	s.layer = map[string]float64{}
	s.timers = map[string]time.Duration{}
	s.mu.Unlock()
	settle()
	gc0 := readGC()
	cpu0 := cpuSeconds()
	err := p.measure(d)
	st := phaseStats{cpu: cpuSeconds() - cpu0}
	gc1 := readGC()
	s.set("gc.cycles", float64(gc1.cycles-gc0.cycles))
	s.set("heap.alloc_mb", float64(gc1.allocBytes-gc0.allocBytes)/(1<<20))
	s.mu.Lock()
	for _, v := range s.lat {
		st.lat = append(st.lat, v)
	}
	st.work = s.work
	s.mu.Unlock()
	if err == nil && len(st.lat) == 0 {
		err = errors.New("no operation completed")
	}
	return st, err
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up cfg.setups times, then measures it: one
// untraced window for the end-to-end metrics, or an untraced and a traced
// half-window for the per-layer ones.
func (w *workload) run(s *recorder) (*result, error) {
	cfg := s.cfg
	setups := make([]float64, 0, cfg.setups)
	var p *prepared
	for i := 0; i < max(cfg.setups, 1); i++ {
		if p != nil {
			p.close()
		}
		settle()
		t := now()
		var err error
		if p, err = w.setup(s); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer p.close()

	if !cfg.traced {
		ph, err := s.phase(p, cfg.window)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		p.finish(false)
		s.checkDigest(w.name)
		values := map[string]float64{
			"setup_s":        median(setups),
			"op_p50_ms":      quantile(ph.lat, 0.5),
			"op_p99_ms":      quantile(ph.lat, 0.99),
			"work_per_cpu_s": ph.work / ph.cpu,
			"peak_rss_mb":    peakRSSMiB(),
		}
		return s.report(endToEnd, values), nil
	}

	untraced, err := s.phase(p, cfg.window/2)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.finish(false)
	dir := filepath.Join(cfg.traceDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log := newSpanLog()
	s.mu.Lock()
	s.spans = log
	s.mu.Unlock()
	prof, err := startProfile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	traced, err := s.phase(p, cfg.window/2)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	s.mu.Lock()
	s.spans = nil
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.finish(true)
	s.checkDigest(w.name)
	text, err := pprofTraces(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	att, err := parseTraces(text)
	if err != nil {
		return nil, err
	}
	if err := writeTraceFiles(dir, text, log); err != nil {
		return nil, err
	}

	s.mu.Lock()
	values := make(map[string]float64, len(s.layer)+len(s.counts))
	for k, v := range s.layer {
		values[k] = v
	}
	for k, v := range s.counts {
		values[k] = v
	}
	s.mu.Unlock()
	for _, st := range pipelineStages {
		values["stage."+st+".cpu_s"] = att.stages[st]
	}
	for _, l := range profileLayers {
		values[l+".cpu_s"] = att.layers[l]
	}
	values["profile.cpu_s"] = att.total
	values["profile.attributed_share"] = att.attributedShare()
	// The traced phase ran the same operations as the untraced one; the
	// CPU time it spent beyond the untraced cost of its work is tracing's.
	if untraced.work > 0 {
		values["trace.overhead_s"] = traced.cpu - traced.work*untraced.cpu/untraced.work
	}
	values["trace.spans"] = float64(log.len())
	fmt.Fprintf(s.log, "rmtperf: %s trace written to %s (spans.json loads in Perfetto; traces.txt is the attributed profile)\n", w.name, dir)
	return s.report(perLayer, values), nil
}

func writeTraceFiles(dir, traces string, log *spanLog) error {
	if err := os.WriteFile(filepath.Join(dir, "traces.txt"), []byte(traces), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	if err := log.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// committedDigests are every workload's canonical-output digests at the
// default seed and full size, recorded when the benchmark was added.
//
//go:embed testdata/digests.json
var committedDigestsJSON []byte

var committedDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(committedDigestsJSON, &m); err != nil {
		panic(fmt.Sprintf("testdata/digests.json: %v", err)) // embedded at build time
	}
	return m
}()

// checkDigest holds a full-size run at the default seed to its committed
// digest: the outputs must not move.
func (s *recorder) checkDigest(name string) {
	if s.cfg.smoke || s.cfg.seed != defaultSeed {
		return
	}
	s.mu.Lock()
	got := s.digest
	s.mu.Unlock()
	var err error
	if want := committedDigests[name]; got != want {
		err = fmt.Errorf("%s: digest %s at seed %d differs from testdata/digests.json (%s)", name, got, defaultSeed, want)
	}
	s.verify(err)
}

// report assembles the run's JSON object over defs (every name present,
// 0 where the workload recorded nothing) and prints the human-readable
// report lines: one per metric, then the exact counts and the digest.
func (s *recorder) report(defs []metricDef, values map[string]float64) *result {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &result{
		Correct:   s.failed == 0 && s.attempted > 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(s.out, "metric %-28s %16.6f %s\n", d.Name, values[d.Name], d.Unit)
	}
	names := make([]string, 0, len(s.counts))
	for k := range s.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(s.out, "count %s %.0f\n", k, s.counts[k])
	}
	if s.digest != "" {
		fmt.Fprintf(s.out, "digest %s\n", s.digest)
	}
	return res
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settle collects garbage before a workload's next set-up, window, pass or
// sequential operation, so the memory that step reaches is its own:
// garbage the previous step left behind would otherwise be collected or
// not depending on where the collector's cycle happened to stand. Without
// it, peak RSS of identical figures runs varied by up to 35%; with it, by
// under 3%. The collection falls outside every operation's latency.
func settle() { runtime.GC() }

// gcCounters are the collector's cumulative cycle and allocation counts.
type gcCounters struct{ cycles, allocBytes uint64 }

func readGC() gcCounters {
	samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	var c gcCounters
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		c.cycles = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		c.allocBytes = v.Uint64()
	}
	return c
}

// passes runs body once per pass over the workload's inputs: as many
// passes as fit in window at the reference host's pass time nominal, and
// at least one. The count depends only on the window, so every run of a
// given length does the same work and repeated operations are compared
// over the same number of passes. On a host so slow that the next pass
// would end past one and a half windows, the run stops early instead.
func passes(window, nominal time.Duration, body func(pass int) error) error {
	planned := max(1, int(window/nominal))
	start := now()
	for pass := 0; pass < planned; pass++ {
		t := now()
		settle()
		if err := body(pass); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t) > window*3/2 {
			return nil
		}
	}
	return nil
}
