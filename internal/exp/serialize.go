package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"dx100/internal/workloads/pattern"
)

// Spec is one fully-resolved run request: a workload, its dataset
// scale, and the complete system configuration. It is the unit of
// content addressing for the dx100d result cache — two submissions
// that resolve to the same Spec are the same experiment, whatever
// overrides they were phrased with.
type Spec struct {
	Workload string       `json:"workload"`
	Scale    int          `json:"scale"`
	Config   SystemConfig `json:"config"`
	// Pattern, when non-nil, compiles a Spatter-style pattern file
	// into the workload instead of looking Workload up in the registry
	// (Workload must then be empty). The normalized file is part of the
	// content address — omitempty keeps every registry-workload spec
	// hash unchanged, and two submissions of the same pattern (however
	// the JSON was formatted) are the same experiment.
	Pattern *pattern.File `json:"pattern,omitempty"`
	// Sampling, when non-nil, runs the spec under interval sampling
	// (see RunOptions.Sampling). It is part of the content address —
	// omitempty keeps every pre-sampling spec hash unchanged, and a
	// sampled estimate must never be served for a full-detail request.
	Sampling *SamplingConfig `json:"sampling,omitempty"`
}

// Canonical returns the canonical encoding of the spec: JSON with
// struct fields in declaration order and map keys sorted, both of
// which encoding/json guarantees. Adding a config field changes the
// encoding — and therefore the hash — which is exactly right: results
// computed under an older config shape must not be served for a new
// one.
//
// The workload name is coerced to valid UTF-8 before encoding so that
// canonicalization is idempotent even for garbage input: encoding/json
// escapes invalid bytes as U+FFFD, and without the coercion a
// canonical-form round trip would re-encode that replacement rune
// differently from the original bytes (FuzzSpecCanonical found and now
// pins this). Sampling is encoded with its defaults resolved, so an
// unset knob and its default value are one experiment.
func (sp Spec) Canonical() ([]byte, error) {
	sp.Workload = strings.ToValidUTF8(sp.Workload, "�")
	if sp.Pattern != nil {
		n := sp.Pattern.Normalized()
		sp.Pattern = &n
	}
	if sp.Sampling != nil {
		c := sp.Sampling.withDefaults()
		sp.Sampling = &c
	}
	b, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("exp: canonicalize spec: %w", err)
	}
	return b, nil
}

// Hash returns the spec's content address: the hex SHA-256 of its
// canonical encoding.
func (sp Spec) Hash() (string, error) {
	b, err := sp.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Run executes the spec.
func (sp Spec) Run(opts RunOptions) (Result, error) {
	if sp.Sampling != nil && opts.Sampling == nil {
		opts.Sampling = sp.Sampling
	}
	if sp.Pattern != nil {
		if sp.Workload != "" {
			return Result{}, fmt.Errorf("exp: spec names both workload %q and a pattern file", sp.Workload)
		}
		scale := sp.Scale
		if scale < 1 {
			scale = 1
		}
		inst, err := pattern.Compile(sp.Pattern, scale)
		if err != nil {
			return Result{}, err
		}
		return RunInstanceOpts(inst, sp.Config, opts)
	}
	return RunOpts(sp.Workload, sp.Scale, sp.Config, opts)
}

// ResultJSON renders a Result in the stable wire form shared by the
// dx100sim -json flag and the dx100d service: compact JSON, snake case
// keys, statistics as a sorted flat object. Compact deliberately —
// indented output would be re-indented when the service embeds it in a
// status envelope, breaking the byte-for-byte identity between the CLI
// and served forms. The simulator is deterministic, so two executions
// of the same Spec produce byte-identical ResultJSON — the property
// the content-addressed cache and the service's acceptance golden rely
// on. Pipe through jq for a human-readable view.
func ResultJSON(r Result) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeResult parses the ResultJSON wire form.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, fmt.Errorf("exp: decode result: %w", err)
	}
	return r, nil
}
