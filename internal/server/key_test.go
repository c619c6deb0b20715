// Canonical-key contract tests: the content-addressed cache is sound only
// if the key is stable across JSON spellings of the same experiment and
// injective across distinct experiments. FuzzCanonicalKey drives both
// properties from arbitrary bodies.
package server

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/rmt"
)

func mustKey(t *testing.T, body string) string {
	t.Helper()
	_, _, key, err := parseRun([]byte(body))
	if err != nil {
		t.Fatalf("parseRun(%s): %v", body, err)
	}
	return key
}

func TestCanonicalKeyStableAcrossFieldOrder(t *testing.T) {
	a := mustKey(t, `{"mode":"srt","programs":["gcc","go"],"psr":true,"budget":1000,"warmup":500}`)
	b := mustKey(t, `{"warmup":500,"psr":true,"budget":1000,"programs":["gcc","go"],"mode":"srt"}`)
	if a != b {
		t.Fatalf("field order forked the key:\n%s\n%s", a, b)
	}
}

func TestCanonicalKeyResolvesDefaults(t *testing.T) {
	implicit := mustKey(t, `{"mode":"srt","programs":["gcc"]}`)
	explicit := mustKey(t, `{"mode":"srt","programs":["gcc"],"budget":30000,"warmup":20000}`)
	if implicit != explicit {
		t.Fatalf("default sizes and their explicit spelling are the same experiment but keyed apart")
	}
}

func TestCanonicalKeyZeroesIgnoredCheckerLatency(t *testing.T) {
	a := mustKey(t, `{"mode":"srt","programs":["gcc"],"checker_latency":8}`)
	b := mustKey(t, `{"mode":"srt","programs":["gcc"]}`)
	if a != b {
		t.Fatalf("checker latency is ignored outside lockstep but forked the key")
	}
	l0 := mustKey(t, `{"mode":"lockstep","programs":["gcc"]}`)
	l8 := mustKey(t, `{"mode":"lockstep","programs":["gcc"],"checker_latency":8}`)
	if l0 == l8 {
		t.Fatalf("Lock0 and Lock8 are distinct experiments but share a key")
	}
}

func TestCanonicalKeyDistinguishesExperiments(t *testing.T) {
	base := `{"mode":"srt","programs":["gcc"],"budget":1000,"warmup":500}`
	distinct := []string{
		`{"mode":"crt","programs":["gcc"],"budget":1000,"warmup":500}`,
		`{"mode":"srt","programs":["go"],"budget":1000,"warmup":500}`,
		`{"mode":"srt","programs":["gcc","gcc"],"budget":1000,"warmup":500}`,
		`{"mode":"srt","programs":["gcc"],"budget":1001,"warmup":500}`,
		`{"mode":"srt","programs":["gcc"],"budget":1000,"warmup":501}`,
		`{"mode":"srt","programs":["gcc"],"budget":1000,"warmup":500,"psr":true}`,
		`{"mode":"srt","programs":["gcc"],"budget":1000,"warmup":500,"per_thread_sq":true}`,
		`{"mode":"srt","programs":["gcc"],"budget":1000,"warmup":500,"no_store_comparison":true}`,
	}
	seen := map[string]string{mustKey(t, base): base}
	for _, body := range distinct {
		k := mustKey(t, body)
		if prev, dup := seen[k]; dup {
			t.Fatalf("distinct experiments collide:\n%s\n%s", prev, body)
		}
		seen[k] = body
	}
}

func TestEndpointIsPartOfKey(t *testing.T) {
	_, _, runKey, err := parseRun([]byte(`{"mode":"srt","programs":["gcc"]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, _, sweepKey, err := parseSweep([]byte(`{"specs":[{"mode":"srt","programs":["gcc"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if runKey == sweepKey {
		t.Fatalf("/run and /sweep share a key for overlapping experiments")
	}
}

// FuzzCanonicalKey proves, over arbitrary bodies, that canonicalisation
// is (1) stable across JSON field ordering and (2) injective on valid
// requests: any semantic mutation of the canonical form changes the key,
// and any non-semantic respelling does not.
func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte(`{"mode":"srt","programs":["gcc"],"budget":1000,"warmup":500}`))
	f.Add([]byte(`{"mode":"crt","programs":["gcc","swim"],"psr":true}`))
	f.Add([]byte(`{"mode":"lockstep","programs":["li"],"checker_latency":8}`))
	f.Add([]byte(`{"warmup":1,"budget":2,"programs":["compress"],"mode":"base2"}`))
	f.Add([]byte(`{"mode":"base","programs":["fpppp","applu","mgrid"],"per_thread_sq":true,"no_store_comparison":true}`))
	// Generated kernels are first-class experiment identities: their names
	// must canonicalise and key exactly like registry names.
	f.Add([]byte(`{"mode":"srt","programs":["gen:7"],"budget":1000,"warmup":500}`))
	f.Add([]byte(`{"mode":"crt","programs":["gen:12926140234400183891","gen:5988186966546787131"],"psr":true}`))
	f.Add([]byte(`{"mode":"base","programs":["gen:0","gcc","gen:18446744073709551615"]}`))
	f.Add([]byte(`{"mode":"srtr","programs":["gcc"]}`))
	f.Add([]byte(`{"mode":"adaptive","programs":["gcc","gen:7"],"adaptive_threshold":0.5,"checkpoint_interval":512}`))

	kernels := rmt.Kernels()

	f.Fuzz(func(t *testing.T, body []byte) {
		req, spec, k1, err := parseRun(body)
		if err != nil {
			t.Skip() // not a valid request: no key to reason about
		}

		// Stability: re-spell the same body with sorted field order (via a
		// map round-trip) — the key must not move.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("struct decode accepted what map decode rejects: %v", err)
		}
		respelled, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, k2, err := parseRun(respelled); err != nil {
			t.Fatalf("respelled body stopped parsing: %v", err)
		} else if k2 != k1 {
			t.Fatalf("field order forked the key:\nbody      %s\nrespelled %s", body, respelled)
		}

		// Stability: the canonical form itself re-keys identically.
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, k3, err := parseRun(canon); err != nil {
			t.Fatalf("canonical form stopped parsing: %v", err)
		} else if k3 != k1 {
			t.Fatalf("canonicalisation is not idempotent")
		}

		// Injectivity: every semantic mutation of the canonical request
		// must move the key.
		mutate := func(name string, fn func(r *RunRequest)) {
			m := req
			m.Programs = append([]string(nil), req.Programs...)
			fn(&m)
			mb, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, _, mk, err := parseRun(mb)
			if err != nil {
				t.Fatalf("mutation %s produced an invalid request: %v", name, err)
			}
			if mk == k1 {
				t.Fatalf("mutation %s did not change the key (body %s)", name, mb)
			}
		}
		mutate("budget+1", func(r *RunRequest) { r.Budget++ })
		mutate("warmup+1", func(r *RunRequest) { r.Warmup++ })
		mutate("flip psr", func(r *RunRequest) { r.PSR = !r.PSR })
		mutate("flip per_thread_sq", func(r *RunRequest) { r.PerThreadSQ = !r.PerThreadSQ })
		mutate("flip no_store_comparison", func(r *RunRequest) { r.NoStoreComparison = !r.NoStoreComparison })
		mutate("append program", func(r *RunRequest) { r.Programs = append(r.Programs, kernels[0]) })
		mutate("switch mode", func(r *RunRequest) {
			modes := sim.Modes()
			for i, m := range modes {
				if m == spec.Mode {
					r.Mode = modes[(i+1)%len(modes)].String()
				}
			}
		})

		// Mode-specific knobs: changing one the mode reads must move the
		// key; setting one it ignores must not.
		reads := rmt.Spec{Mode: spec.Mode, CheckerLatency: 1, AdaptiveThreshold: 1, CheckpointInterval: 1}.Canonical()
		for _, k := range []struct {
			name string
			read bool
			set  func(r *RunRequest)
		}{
			{"checker_latency", reads.CheckerLatency != 0, func(r *RunRequest) { r.CheckerLatency++ }},
			{"adaptive_threshold", reads.AdaptiveThreshold != 0, func(r *RunRequest) {
				if r.AdaptiveThreshold == 0.5 {
					r.AdaptiveThreshold = 0.25
				} else {
					r.AdaptiveThreshold = 0.5
				}
			}},
			{"checkpoint_interval", reads.CheckpointInterval != 0, func(r *RunRequest) { r.CheckpointInterval++ }},
		} {
			if k.read {
				mutate("change "+k.name, k.set)
				continue
			}
			m := req
			k.set(&m)
			mb, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, mk, err := parseRun(mb); err != nil {
				t.Fatal(err)
			} else if mk != k1 {
				t.Fatalf("ignored %s forked the key for mode %s", k.name, req.Mode)
			}
		}
		if len(req.Programs) > 1 && req.Programs[0] != req.Programs[len(req.Programs)-1] {
			mutate("reverse programs", func(r *RunRequest) {
				for i, j := 0, len(r.Programs)-1; i < j; i, j = i+1, j-1 {
					r.Programs[i], r.Programs[j] = r.Programs[j], r.Programs[i]
				}
			})
		}
	})
}
