// Command rmtperf is the repository's benchmark. One command runs four
// workloads against the simulator, checks every workload's output, and
// prints each metric by name with its unit. BENCHMARK.json at the
// repository root lists the same workloads, metrics, units and bounds;
// TestMetricTablesMatchBenchmarkJSON keeps the two identical.
//
// # Running
//
// From the repository root:
//
//	bash cmd/rmtperf/run.sh                            # every workload, each in its own child process
//	bash cmd/rmtperf/run.sh -workload serve -seed 7    # one workload in this process
//	bash cmd/rmtperf/run.sh -workload figures -trace 1 # per-layer metrics from a traced run
//	bash cmd/rmtperf/run.sh -runs 3 -json a.json       # three rounds: medians, quartiles, a results file
//	bash cmd/rmtperf/run.sh -compare a.json b.json     # b against a: bounds and exact counts
//
// run.sh builds the command with every Go cache under .bench_build/ and
// runs it. The command sets GOMAXPROCS=2 and runs every workload with
// parallelism 2, so it loads at most two threads; the load generator opens
// at most two connections. It is a module of its own (go.mod here), so
// `go test ./...` at the root does not build it; its smoke test runs with
// `go -C cmd/rmtperf test ./...`.
//
// A run sets its workload up five times (setup_s is the median), then
// measures -seconds of work (default 20, BENCHMARK.json's run_seconds).
// It prints `metric <name> <value> <unit>` lines, `count <name> <value>`
// lines for the exact counts, a `digest <sha256>` line for the canonical
// output (at the default seed, 1, it must equal testdata/digests.json),
// and last a JSON object {correct, attempted, failed, metrics}.
// attempted counts operations and output checks; any failed one makes the
// run exit 1. Without -workload the command runs each workload in a child
// process and summarises; -runs N repeats that, reversing the workload
// order on odd rounds, and -json saves every run for -compare. -compare
// fails when any run in either file failed or crashed (a crashed child is
// saved as a failed run), when the second file has fewer runs of a
// workload than the first, when an end-to-end median is worse than its
// bound, or when any exact count or digest differs.
//
// # Seeds
//
// -seed draws every input that varies: the campaign fault plans, the serve
// request mix, keys and arrival times, and the corpus kernels. The same
// seed gives the same inputs, exact counts and digests. figures has no
// seed: it regenerates the paper's figures from the paper's fixed kernels.
// The seed never changes the size or mix of the work, only its identity,
// so metrics from different seeds are comparable.
//
// # Workloads
//
// A batch workload repeats passes over its inputs: as many as fit in the
// window at the reference host's pass time, so every run of one length does
// the same work. An operation repeated in a later pass counts with its
// fastest latency, which filters out host interference (it only ever slows
// an operation down). The harness collects garbage before every set-up,
// window and pass, and before each operation of the sequential workloads
// (figures, campaign), outside the operation's latency: garbage left by
// the previous operation otherwise lands in the next one's peak memory or
// not depending on where the collector's cycle stands, which moved peak
// RSS of identical figures runs by up to 35%.
//
// figures regenerates every experiment of the paper's evaluation
// (rmt.Experiments) plus Table 1 at the quick size (budget 8000, warmup
// 5000 instructions per thread), about 6 s per pass, three passes. Each
// pass's output must equal testdata/figures.golden (`rmtbench -quick`
// output) byte for byte. It is the job users wait on most, and the timing
// pipeline does nearly all of its work: by innermost frame the issue stage,
// the ring queues and the functional VM lead; snapshot code appears only in
// the recovery and coverage experiments, and the server not at all. It
// also prints accuracy.* lines comparing simulated averages with those the
// paper states (informational, not gated: the model is unvalidated against
// hardware and these are quick-size runs).
//
// campaign runs 24 fault-injection campaigns (rmt.Campaign) of 96 trials:
// modes srt, crt, srtr and adaptive (θ=0.5), each on compress, swim, li,
// gcc and two generated kernels of the repository's fixed 0xC0FFEE corpus,
// at the campaign default sizes (20000/5000) with PSR and parallelism 2;
// about 10 s per pass, two passes. The seed draws each campaign's fault
// plan. It is the reliability user's job and uses the pipeline unlike
// figures: many short replays from restored snapshots instead of long
// steady runs, so snapshot encode and restore take a large share of its
// CPU. Checks: one outcome per trial, outcomes that add up, no silent
// corruption outside adaptive mode, identical digests across passes.
//
// serve is an open loop against an in-process rmtd (server.New with the
// default 2 workers, queue of 8 and 512-entry cache) on 127.0.0.1: Poisson
// arrivals at 60 requests/s for the window, over at most 2 connections.
// Nine requests in ten are warm, drawn Zipf(1.1) over 32 keys computed in
// set-up (half /run, a quarter /sweep, a quarter /campaign); every warm
// response must equal its set-up body byte for byte. One in ten is cold:
// a never-repeated key (same endpoint mix, modes in a fixed cycle, seeded
// registry kernels or generated kernels from the pinned 0xC0FFEE corpus)
// that simulates for tens of milliseconds; after the window each cold
// response is recomputed by a direct rmt.Run, rmt.Sweep or rmt.Campaign
// call and must match. This traffic is assumed, not measured: no rmtd
// request log exists to fit the rate, the Zipf exponent, the key count,
// the endpoint split or the warm/cold split to. Latency runs from each
// request's scheduled send time. Serving and cache changes show only
// here. The run also reports whether the latency limits held (serve.slo_met:
// warm p99 at most 10 ms, cold p90 at most 2 s); a sweep for the highest
// sustainable rate is out of scope.
//
// corpus takes 200 kernels from progen.CorpusSeeds(seed, 200), fanned over
// 2 workers with internal/runner, through progen.Generate,
// rmt.AnalyzeProgram, progen.Characterize, a fault-free 64-lane vm.Batch
// replay (every lane must halt in the characterised instruction count with
// identical registers) and a 64-lane replay armed with the fault.Plan
// transients (each lane classified against the fault-free state); about
// 9 s per pass, two passes. No timing model runs: a functional-VM change
// shows at full strength here and at about a tenth in figures, and a
// pipeline change should show no change here.
//
// Simulated warmup fills the modelled caches and predictors before
// statistics start: every simulation executes its warmup instructions
// first and only then counts. Host warm-up is separate: each set-up runs
// one small instance of its workload so the heap and code are warm before
// the first timed operation.
//
// # End-to-end metrics
//
// An untraced run reports all five for every workload:
//
//	setup_s         s    set-up time, median of five set-ups
//	op_p50_ms       ms   median operation latency
//	op_p99_ms       ms   99th-percentile operation latency
//	work_per_cpu_s  1/s  units of work per second of process CPU time
//	peak_rss_mb     MiB  the process's peak resident set (VmHWM) over the
//	                     whole run: set-ups, window and output checks
//
// An operation is one experiment (figures, 10 per pass), one campaign
// (campaign, 24), one request (serve, 1200) or one kernel's five stages
// (corpus, 200). A unit of work is a simulated cycle (figures), a trial
// (campaign), a served request (serve) or a functional instruction
// (corpus). Failed operations count in attempted/failed, never in the
// latencies.
//
// The tail is p99 because serve's latencies form three populations: warm
// hits (nine in ten), cold /run requests (the next twentieth) and cold
// /sweep and /campaign requests (the last twentieth). p90 and p95 fall on
// the boundaries between them and jump from one population to the next
// between runs; p99 is the cold requests' p90, the percentile the cold
// latency limit is stated for, and it has 12 requests beyond it. For the
// batch workloads it is the slowest operations.
//
// Bounds (BENCHMARK.json) are set from each metric's measured spread, the
// interquartile range over the median of repeated runs on a shared 2-vCPU
// virtual machine; metrics.go lists the spreads beside the bounds. Most of
// the spread is host speed drifting between runs minutes apart rather than
// the inputs: figures has no seed and spreads like the seeded workloads,
// and runs with one seed spread nearly as much as runs with ten. The drift
// lasts minutes: in three pairs of `-runs 3` sets of the same code, each
// pair taken back to back, the medians of a pair differed by up to 17%,
// 18% and 23%, while each set's own spread stayed mostly under 10%.
// Compare two commits with interleaved rounds, ten or more, not with sets
// taken minutes apart.
//
// # Per-layer metrics
//
// A traced run (-trace 1) reports every per-layer metric for every
// workload, 0 where the workload does not exercise the layer. Each is
// listed with the end-to-end metric it should move:
//
//	stage.{fetch,dispatch,issue,retire}.cpu_s (inclusive: nearest stage
//	file on the stack); self time pipeline.{fetch,dispatch,issue,retire,
//	core}.cpu_s, ringq, mem, predict, rmt (internal/rmt), lockstep, isa,
//	stats, program .cpu_s
//	    figures op latencies and work_per_cpu_s; campaign work_per_cpu_s
//	    (about half its CPU); serve op_p99_ms (cold requests). No change on
//	    corpus.
//	vm.cpu_s; vm.batch_s, vm.faulted_batch_s (span time)
//	    corpus work_per_cpu_s and latencies; figures at about a tenth.
//	snap.cpu_s (internal/snap plus every snapshot.go); probes
//	snap.encode_ms, snap.decode_ms, snap.bytes, campaign.golden_s
//	    campaign work_per_cpu_s and peak_rss_mb. No change on figures.
//	fault, sim, exp, runner, facade (repro/rmt) .cpu_s; runner.busy_s,
//	runner.speedup (rmt.WithReport / runner.Report); exp.<id>.wall_s
//	    figures and campaign latencies.
//	server, net, json .cpu_s; server.{hits,misses,dedup,rejected,
//	hit_ratio}; server.overhead_ms_p50 (cold latency minus compute);
//	serve.{warm_p50,warm_p99,cold_p50,cold_p90}_ms
//	    serve op_p50_ms (warm) and op_p99_ms.
//	server.compute_ms_p50 (each cold request recomputed by a direct call)
//	    serve op_p99_ms.
//	progen, analysis .cpu_s; progen.generate_s, progen.characterize_s,
//	analysis.ace_s
//	    corpus latencies; campaign and corpus setup_s.
//	gc, bench (this command), module_other, other .cpu_s; profile.cpu_s,
//	profile.attributed_share; gc.cycles and heap.alloc_mb (collections
//	run and bytes allocated in the traced half, from runtime/metrics)
//	    peak_rss_mb and every latency.
//	sim_mcycles_per_s (figures, campaign), trials_per_s (campaign),
//	minstr_per_s (corpus)
//	    the workload's own throughput in wall-clock terms.
//	sim_cycles, trials, outcome.{detected,masked,recovered,not_fired,
//	unprotected_sdc}, instructions, serve.requests
//	    exact counts: two runs of the same code, seed and length must
//	    report them identically (as must the digest).
//	loadgen.late_p99_ms
//	    validity only: a serve run whose generator ran more than 10 ms late
//	    at p99 says so on stderr; its latencies overstate the server's.
//	trace.overhead_s, trace.spans
//	    what tracing cost and recorded.
//
// # Reading -trace output
//
// A traced run measures half the window untraced and half traced; only
// untraced runs give end-to-end numbers. The traced half records a span
// around every call the benchmark makes into the system (an experiment, a
// campaign, a request, a corpus stage) and samples the process with
// runtime/pprof. trace.overhead_s is the CPU time the traced half spent
// beyond the untraced half's cost for the same work. It writes, under
// -trace-dir (default .bench_build/trace), per workload:
//
//	spans.json  Chrome trace_event JSON; open it in Perfetto or
//	            chrome://tracing. One track per worker or connection;
//	            each span's args carry its id, its parent span and, for
//	            serve, the request id.
//	cpu.pprof   the CPU profile, for `go tool pprof`.
//	traces.txt  `go tool pprof -traces -lines` of that profile, the text
//	            the attribution reads.
//
// Attribution charges each sample to the innermost frame of this module;
// internal/pipeline is split by file (fetch.go, dispatch.go, issue.go,
// retire.go, the rest as core); any snapshot.go counts as snap; standard
// library JSON or network code running under a module frame counts as
// json or net; samples with no module frame go to json, net, gc (the
// garbage collector's background workers) or other. profile.attributed_share
// is the share of samples outside other.
package main
