// Package exp assembles complete simulated systems — baseline
// multicore, baseline+DMP, and multicore+DX100 — runs workloads on
// them, and implements one experiment per figure and table of the
// paper's evaluation (§5, §6).
package exp

import (
	"encoding/json"
	"fmt"

	"dx100/internal/cpu"
	"dx100/internal/dram"
	"dx100/internal/dx100"
	"dx100/internal/prefetch"
	"dx100/internal/sim"
)

// Mode selects the system under test.
type Mode int

const (
	// Baseline is the 4-core system of Table 3 with a 10 MB LLC.
	Baseline Mode = iota
	// DMP is the baseline plus the indirect prefetcher of §6.3.
	DMP
	// DX is the 4-core system with an 8 MB LLC plus DX100.
	DX
)

func (m Mode) String() string {
	return [...]string{"baseline", "dmp", "dx100"}[m]
}

// ParseMode inverts String: the names used by the CLI's -mode flag and
// the dx100d wire format.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "baseline":
		return Baseline, nil
	case "dmp":
		return DMP, nil
	case "dx100":
		return DX, nil
	}
	return 0, fmt.Errorf("exp: unknown mode %q", s)
}

// MarshalJSON encodes the mode by name, keeping the wire format (and
// the canonical config hash) independent of the constants' ordering.
func (m Mode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON accepts the name form ("dx100") only.
func (m *Mode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// SystemConfig describes one simulated system (Table 3). The JSON
// form (snake_case keys, nested component configs under their Go field
// names) is part of the dx100d wire format and feeds the canonical
// content hash — see Spec.Canonical.
type SystemConfig struct {
	Mode      Mode            `json:"mode"`
	Cores     int             `json:"cores"`
	LLCBytes  int             `json:"llc_bytes"`
	DRAM      dram.Params     `json:"dram"`
	Core      cpu.Config      `json:"core"`
	Accel     dx100.Config    `json:"accel"`
	DMP       prefetch.Config `json:"dmp"`
	Instances int             `json:"instances"` // DX100 instances (§6.6)
	MaxCycles sim.Cycle       `json:"max_cycles"`
	// WarmLLC pre-loads every array line into the LLC and resets the
	// statistics before measurement — the All-Hit setup of §6.1.
	WarmLLC bool `json:"warm_llc"`
}

// Default returns the Table 3 system for the given mode: the baseline
// and DMP get a 10 MB LLC; DX100 gets 8 MB plus the accelerator,
// keeping the area comparison fair (§6.5).
func Default(mode Mode) SystemConfig {
	cfg := SystemConfig{
		Mode:      mode,
		Cores:     4,
		LLCBytes:  10 << 20,
		DRAM:      dram.DDR4_3200(),
		Core:      cpu.SkylakeLike(),
		Accel:     dx100.DefaultConfig(),
		DMP:       prefetch.DefaultConfig(),
		Instances: 1,
		MaxCycles: 2_000_000_000,
	}
	if mode == DX {
		cfg.LLCBytes = 8 << 20
	}
	return cfg
}

// Scale8 doubles cores, LLC and memory channels for the scalability
// study (Fig 14).
func Scale8(instances int) SystemConfig {
	cfg := Default(DX)
	cfg.Cores = 8
	cfg.LLCBytes = 16 << 20
	cfg.DRAM.Channels = 4
	cfg.Instances = instances
	if instances == 1 {
		// One instance with a doubled (4 MB) scratchpad.
		cfg.Accel.Machine.Tiles = 64
	}
	return cfg
}

// Scale8Baseline is the 8-core baseline for Fig 14's normalization.
func Scale8Baseline() SystemConfig {
	cfg := Default(Baseline)
	cfg.Cores = 8
	cfg.LLCBytes = 20 << 20
	cfg.DRAM.Channels = 4
	return cfg
}
