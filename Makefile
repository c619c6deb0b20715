# Tier-1: must stay green. cmd/rmtperf is a module of its own (the
# benchmark), so the root `go test ./...` does not reach its smoke tests.
verify:
	go build ./... && go test ./...
	go -C cmd/rmtperf test ./...

# Tier-2: the full suite under the race detector.
race:
	go test -race ./...

# Static analysis: gofmt (fails listing every unformatted file), go vet
# over the root module and over the benchmark's nested cmd/rmtperf module
# (the root ./... does not reach it), then rmtlint
# (determinism/layering/shared-state/snapshot/snapshot-completeness
# analyzers and stale-directive detection over every package of the
# module — internal/, cmd/ and examples/ alike — then the program verifier
# over every registered kernel).
lint:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || \
		{ echo "gofmt -l: these files are not gofmt-clean:"; echo "$$unformatted"; exit 1; }
	go vet ./...
	go -C cmd/rmtperf vet ./...
	go run ./cmd/rmtlint ./...

# Acceptance gate for the static ACE analysis: every statically-masked
# injection site must be dynamically confirmed Masked (randomized campaign
# cross-validation over the registry kernels and a generated slice, plus
# one targeted injection per site).
crossval:
	go test ./internal/fault/ -run 'TestStaticMaskingCrossValidation|TestStaticMaskedSitesExhaustive|TestGenPrunedCampaignByteIdentical|TestGenStaticMaskedSitesExhaustive' -count=1 -v

# Run every example end to end (go build only compiles them). Each takes
# well under a second with a warm build cache.
EXAMPLES := coverage crtpair faultdetect quickstart
examples:
	@set -e; for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		go run ./examples/$$ex >/dev/null; \
	done

# Quick end-to-end check of the parallel sweep engine: regenerate the
# evaluation at cut-down sizes across 4 workers.
smoke:
	go run ./cmd/rmtbench -quick -parallel 4 >/dev/null

# The acceptance invariant: -parallel 1 and -parallel 4 stdout must be
# byte-identical, and equal to the benchmark's recorded quick-size output
# (cmd/rmtperf/testdata/figures.golden, read here and never written).
# Outputs go to mktemp paths so concurrent CI runs cannot clobber each
# other.
determinism:
	@set -e; \
	p1=$$(mktemp); p4=$$(mktemp); trap 'rm -f $$p1 $$p4' EXIT; \
	go run ./cmd/rmtbench -quick -parallel 1 2>/dev/null > $$p1; \
	go run ./cmd/rmtbench -quick -parallel 4 2>/dev/null > $$p4; \
	cmp $$p1 $$p4; echo "byte-identical"; \
	cmp $$p1 cmd/rmtperf/testdata/figures.golden; echo "matches cmd/rmtperf/testdata/figures.golden"

# Coverage gate: total statement coverage must not fall below the floor.
# Re-pinned when the recovery/adaptive modes landed: the mode-matrix and
# recovery batteries lifted the measured total from the 72.0%-era figure
# to 74.9% (no-test cmd/ and examples/ packages still fold in at 0%); the
# floor leaves a small margin for flaky per-run variation.
COVER_FLOOR := 73.5
cover:
	@set -e; out=$$(mktemp); trap 'rm -f $$out' EXIT; \
	go test -count=1 -coverprofile=$$out ./...; \
	total=$$(go tool cover -func=$$out | tail -1 | awk '{gsub(/%/,"",$$NF); print $$NF}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) }' || \
	{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Fuzz battery: bounded runs of every fuzz target but FuzzGenModeEquivalence,
# which fails within seconds until the outcome digest stops depending on
# timing (ROADMAP item 3). A crasher is persisted under the package's
# testdata/fuzz/ for replay as a regular test case. FuzzSnapshot's inputs
# are snapshots of 100 KB and more; minimising each new one byte by byte
# would spend the whole budget, so it is capped at 1 s.
FUZZTIME := 10s
fuzz:
	go test ./internal/isa/ -run '^$$' -fuzz FuzzLoadImage -fuzztime $(FUZZTIME)
	go test ./internal/server/ -run '^$$' -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME)
	go test ./internal/sim/ -run '^$$' -fuzz FuzzSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	go test ./internal/sim/ -run '^$$' -fuzz FuzzGenLiveness -fuzztime $(FUZZTIME)
	go test ./internal/progen/ -run '^$$' -fuzz FuzzGenerate -fuzztime $(FUZZTIME)
	go test ./internal/vmdiff/ -race -run '^$$' -fuzz FuzzBatchStep -fuzztime $(FUZZTIME)

# Generator smoke tier: the fixed-seed corpus properties (verifier
# cleanliness, halt-within-bound, determinism) as plain tests, plus a short
# FuzzGenerate run steering the coverage-guided fuzzer at the generator's
# whole seed domain.
fuzz-progen:
	go test ./internal/progen/ -count=1
	go test ./internal/progen/ -run '^$$' -fuzz FuzzGenerate -fuzztime 10s

# The generated-kernel differential battery: metamorphic state equality
# (base/SRT/CRT/4-context SMT), snapshot byte-identity and campaign
# determinism over the fixed 64-kernel corpus, under the race detector.
gen-battery:
	go test ./internal/sim/ ./internal/fault/ ./internal/server/ -run 'TestGen' -count=1 -race -timeout 20m

# Recovery/adaptive acceptance tier: the mode-matrix fault-coverage
# battery (masked-site gate plus targeted injections across every machine
# organisation), the SRTR recovery campaigns on the curated and generated
# corpora with parallelism-determinism checks, the adaptive
# partial-redundancy frontier, and the SRTR snapshot/rollback
# byte-identity and fault-free equivalence checks — all under the race
# detector, plus the recovery/adaptive figure shape tests.
recovery-battery:
	go test ./internal/fault/ -run 'TestModeMatrix|TestSRTR|TestAdaptive' -count=1 -race -timeout 20m
	go test ./internal/sim/ -run 'TestSRTR|TestAdaptive|TestGenMetamorphicSRTR|TestGenMetamorphicAdaptive' -count=1 -race -timeout 20m
	go test ./internal/exp/ -run 'TestFigRecoveryShape|TestFigAdaptiveShape' -count=1 -race

# End-to-end daemon smoke: start rmtd, wait for /healthz, POST the same
# /run twice and assert the second is served from the cache (X-Cache: hit),
# then SIGTERM and require a clean drain. Exercises the whole serving path
# (listener, admission, single-flight, cache, shutdown) outside httptest.
SMOKE_ADDR := 127.0.0.1:8471
serve-smoke:
	@set -e; \
	dir=$$(mktemp -d); \
	go build -o $$dir/rmtd ./cmd/rmtd; \
	$$dir/rmtd -addr $(SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	curl -fsS http://$(SMOKE_ADDR)/healthz; \
	body='{"mode":"srt","programs":["compress"],"budget":2000,"warmup":800}'; \
	first=$$(curl -fsS -o $$dir/run1.json -D - -d "$$body" http://$(SMOKE_ADDR)/run | tr -d '\r' | awk 'tolower($$1)=="x-cache:"{print $$2}'); \
	second=$$(curl -fsS -o $$dir/run2.json -D - -d "$$body" http://$(SMOKE_ADDR)/run | tr -d '\r' | awk 'tolower($$1)=="x-cache:"{print $$2}'); \
	echo "first=$$first second=$$second"; \
	test "$$first" = miss; \
	test "$$second" = hit; \
	cmp $$dir/run1.json $$dir/run2.json; \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT; \
	echo "serve-smoke: ok"

# CI-sized performance gate: every benchmark must still run (one iteration
# at -short sizes — this drives each paired mode's fork-on-fault campaign,
# SRTR's rollback replays included, and the batched campaign-replay and
# characterisation paths), a warm simulator must allocate nothing per
# cycle and be cycle-identical with instruction recycling off, in every
# mode, a snapshot into a recycled buffer must allocate nothing, a
# restore into a used machine only its decoder, and a rebuild of a used
# machine under a tenth of a fresh build's bytes, and the batched hot loop
# must allocate nothing per round.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -short .
	go test ./internal/sim/ -run 'TestSteadyStateAllocs|TestPoolDisabledIsCycleIdentical|TestSnapshotCaptureAllocs|TestRestoreAllocsBounded|TestRebuildAllocs' -count=1
	go test ./internal/vm/ -run 'TestBatchSteadyStateAllocs' -count=1

.PHONY: verify race lint examples crossval smoke determinism cover fuzz fuzz-progen gen-battery recovery-battery bench-smoke serve-smoke
