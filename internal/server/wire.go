// Wire format of the rmtd HTTP/JSON API, and the content-addressed keys
// the result cache is indexed by.
//
// A request is canonicalised before anything else happens to it: the JSON
// body is decoded into a fixed struct (so incoming field order is
// irrelevant), validated, normalised (default sizes resolved, fields the
// selected mode ignores zeroed), and re-marshalled with the struct's fixed
// field order. The SHA-256 of that canonical encoding, prefixed with the
// endpoint name, is the cache key. encoding/json emits every field of the
// normalised struct exactly once in declaration order, so the canonical
// encoding — and therefore the key — is injective on normalised requests:
// distinct experiments never collide, and the same experiment always maps
// to the same key however its JSON was spelled. FuzzCanonicalKey holds
// this contract in place.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/rmt"
)

// maxBodyBytes bounds a request body; a sweep of every kernel in every
// mode fits in a few KB, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// The request schema is defined once, in the facade: rmt.Client sends
// these very types.
type (
	SpecWire        = rmt.SpecWire
	RunRequest      = rmt.RunRequest
	SweepRequest    = rmt.SweepRequest
	CampaignRequest = rmt.CampaignRequest
)

// canonicalise validates the spec, rewrites it into its canonical form and
// returns the facade spec it names. The mode name becomes the parsed
// mode's own String (so stray spellings cannot fork the key) and the knobs
// the mode does not read are zeroed (rmt.Spec.Canonical): an SRT spec with
// CheckerLatency 8 is the same experiment as one with 0 and must hit the
// same cache line.
func canonicalise(w *SpecWire) (rmt.Spec, error) {
	spec, err := w.Spec()
	if err != nil {
		return rmt.Spec{}, err
	}
	*w = spec.Wire()
	return spec, nil
}

// resolveSizes maps (budget, warmup) with 0 meaning "default" to the
// concrete defaults, so a request spelling the default explicitly and one
// omitting it are the same experiment (and the same cache key).
func resolveSizes(budget, warmup, defBudget, defWarmup uint64) (uint64, uint64) {
	if budget == 0 {
		budget = defBudget
	}
	if warmup == 0 {
		warmup = defWarmup
	}
	return budget, warmup
}

// maxCampaignTrials bounds one request's work.
const maxCampaignTrials = 10000

// canonicalKey hashes the canonical encoding of a normalised request
// under its endpoint name. The endpoint is part of the preimage so /run
// and a one-spec /sweep of the same experiment cannot share an entry
// (their response shapes differ).
func canonicalKey(endpoint string, normalised any) string {
	enc, err := json.Marshal(normalised)
	if err != nil {
		panic(fmt.Sprintf("server: canonical marshal cannot fail: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(enc)
	return endpoint + ":" + hex.EncodeToString(h.Sum(nil))
}

// decodeStrict decodes body into v, rejecting unknown fields and trailing
// garbage — a mistyped field name must be a 400, not a silently-distinct
// cache key.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// parseRun canonicalises a /run body: decoded, validated, normalised,
// keyed.
func parseRun(body []byte) (RunRequest, rmt.Spec, string, error) {
	var req RunRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, rmt.Spec{}, "", err
	}
	spec, err := canonicalise(&req.SpecWire)
	if err != nil {
		return req, rmt.Spec{}, "", err
	}
	req.Budget, req.Warmup = resolveSizes(req.Budget, req.Warmup, rmt.DefaultBudget, rmt.DefaultWarmup)
	return req, spec, canonicalKey("run", req), nil
}

// parseSweep canonicalises a /sweep body.
func parseSweep(body []byte) (SweepRequest, []rmt.Spec, string, error) {
	var req SweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, nil, "", err
	}
	if len(req.Specs) == 0 {
		return req, nil, "", fmt.Errorf("sweep has no specs")
	}
	specs := make([]rmt.Spec, len(req.Specs))
	for i := range req.Specs {
		spec, err := canonicalise(&req.Specs[i])
		if err != nil {
			return req, nil, "", fmt.Errorf("spec %d: %w", i, err)
		}
		specs[i] = spec
	}
	req.Budget, req.Warmup = resolveSizes(req.Budget, req.Warmup, rmt.DefaultBudget, rmt.DefaultWarmup)
	return req, specs, canonicalKey("sweep", req), nil
}

// parseCampaign canonicalises a /campaign body. Only a paired mode can be
// campaigned: the fault engine strikes one copy of a leading/trailing pair.
func parseCampaign(body []byte) (CampaignRequest, rmt.CampaignSpec, string, error) {
	var req CampaignRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, rmt.CampaignSpec{}, "", err
	}
	spec, err := canonicalise(&req.SpecWire)
	if err != nil {
		return req, rmt.CampaignSpec{}, "", err
	}
	if !spec.Mode.Paired() {
		return req, rmt.CampaignSpec{}, "", fmt.Errorf("campaign requires a paired mode (one running each program as a leading/trailing pair), got %s", spec.Mode)
	}
	if req.N <= 0 || req.N > maxCampaignTrials {
		return req, rmt.CampaignSpec{}, "", fmt.Errorf("campaign n must be in 1..%d, got %d", maxCampaignTrials, req.N)
	}
	req.Budget, req.Warmup = resolveSizes(req.Budget, req.Warmup, rmt.DefaultCampaignBudget, rmt.DefaultCampaignWarmup)
	return req, rmt.CampaignSpec{Spec: spec, N: req.N, Seed: req.Seed}, canonicalKey("campaign", req), nil
}

// EncodeResult renders one rmt.Result exactly as /run serves it: indented
// JSON plus a trailing newline. The e2e battery compares /run bodies
// against this encoding of a direct rmt.Run result byte for byte.
func EncodeResult(res *rmt.Result) []byte {
	return encodeJSON(res)
}

// EncodeResults renders a result slice exactly as /sweep serves it.
func EncodeResults(results []*rmt.Result) []byte {
	return encodeJSON(results)
}

func encodeJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("server: response marshal cannot fail: %v", err))
	}
	return append(b, '\n')
}
