package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"dx100/internal/sample/ckpt"
	"dx100/internal/workloads"
)

// Checkpoints capture the architectural state of a quiescent system —
// after warm-up, before any instruction stream attaches. That is the
// only point the experiment layer snapshots: every component's Save
// refuses in-flight state, and the shared memspace is never
// serialized because rebuilding the same workload instance (same
// name, scale, seed) re-derives it exactly; warm-up only reads it.
// Restoring into a freshly built identical system and running is
// byte-identical to the uninterrupted run (pinned by
// TestCheckpointRestoreIdentity across modes and workloads).

// ckptLayout is the checkpoint's leading guard section: a fingerprint
// of the system topology and workload, validated before any component
// section loads so a mismatched restore fails with a readable error
// instead of a geometry complaint from some inner component.
type ckptLayout struct {
	s        *system
	workload string
}

func (l ckptLayout) describe() string {
	return fmt.Sprintf("%s/%s %d-core (LLC %d B, %d instances)",
		l.workload, l.s.cfg.Mode, l.s.cfg.Cores, l.s.cfg.LLCBytes, l.s.cfg.Instances)
}

// CheckpointSave implements ckpt.Checkpointable.
func (l ckptLayout) CheckpointSave(w *ckpt.Writer) error {
	w.String(l.workload)
	w.String(l.s.cfg.Mode.String())
	w.Int(l.s.cfg.Cores)
	w.Int(l.s.cfg.Instances)
	w.Int(l.s.cfg.LLCBytes)
	return nil
}

// CheckpointLoad implements ckpt.Checkpointable.
func (l ckptLayout) CheckpointLoad(r *ckpt.Reader) error {
	wl, mode := r.String(), r.String()
	cores, insts, llc := r.Int(), r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if wl != l.workload || mode != l.s.cfg.Mode.String() ||
		cores != l.s.cfg.Cores || insts != l.s.cfg.Instances || llc != l.s.cfg.LLCBytes {
		return fmt.Errorf("exp: checkpoint is for %s/%s %d-core (LLC %d B, %d instances); this system is %s",
			wl, mode, cores, llc, insts, l.describe())
	}
	return nil
}

// checkpointParts enumerates the system's components in the canonical
// on-wire order. The same enumeration serves save and restore, so the
// strict name+order matching in ckpt.Unmarshal doubles as a topology
// check.
func (s *system) checkpointParts(workload string) []ckpt.Part {
	parts := []ckpt.Part{
		{Name: "layout", C: ckptLayout{s, workload}},
		{Name: "engine", C: s.eng},
		{Name: "stats", C: s.stats.Checkpoint()},
		{Name: "dram", C: s.mem},
		{Name: "llc", C: s.hier.LLC},
	}
	for i := range s.cores {
		parts = append(parts,
			ckpt.Part{Name: fmt.Sprintf("l2.%d", i), C: s.hier.L2[i]},
			ckpt.Part{Name: fmt.Sprintf("l1.%d", i), C: s.hier.L1[i]},
			ckpt.Part{Name: fmt.Sprintf("core.%d", i), C: s.cores[i]},
		)
	}
	for i, a := range s.accels {
		parts = append(parts, ckpt.Part{Name: fmt.Sprintf("dx100.%d", i), C: a})
	}
	for i, d := range s.dmps {
		parts = append(parts, ckpt.Part{Name: fmt.Sprintf("dmp.%d", i), C: d})
	}
	return parts
}

// checkpoint serializes the quiescent system.
func (s *system) checkpoint(workload string) ([]byte, error) {
	return ckpt.Marshal(s.checkpointParts(workload))
}

// restore loads a checkpoint into the freshly built system. The
// layout guard is validated before the strict section matching in
// ckpt.Unmarshal: a checkpoint from a different topology also has a
// different component count, and "17 sections, 18 components" is a far
// worse error than naming the system the checkpoint was taken for.
func (s *system) restore(workload string, data []byte) error {
	sections, err := ckpt.Decode(data)
	if err != nil {
		return err
	}
	if len(sections) > 0 && sections[0].Name == "layout" {
		if err := (ckptLayout{s, workload}).CheckpointLoad(ckpt.NewReader(sections[0].Data)); err != nil {
			return err
		}
	}
	return ckpt.Unmarshal(data, s.checkpointParts(workload))
}

// warmKey content-addresses a warm-up: the workload's identity and
// region layout plus the full system configuration (canonical JSON).
// Two runs with equal keys build byte-identical systems and perform
// byte-identical warm-ups, so the first run's post-warm-up checkpoint
// substitutes for every later one. Execution policy (worker counts)
// is deliberately absent — like the Spec hash, the key names the
// experiment, not how it is scheduled.
func warmKey(inst *workloads.Instance, cfg SystemConfig) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("exp: warm key: %w", err)
	}
	h := sha256.New()
	h.Write(b)
	fmt.Fprintf(h, "\n%s", inst.Name)
	for _, r := range inst.Space.Regions() {
		fmt.Fprintf(h, "\n%s %d %d", r.Name, r.Base, r.Size)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepare brings the freshly built system to its measurement start
// state: restore an explicit checkpoint, or perform the configured
// LLC warm-up (reusing a cached post-warm-up checkpoint through the
// warm store when one is attached), then optionally write the
// resulting state out as a checkpoint file.
func (s *system) prepare(inst *workloads.Instance, opts RunOptions) error {
	switch {
	case opts.RestoreFrom != "":
		data, err := os.ReadFile(opts.RestoreFrom)
		if err != nil {
			return fmt.Errorf("exp: restore: %w", err)
		}
		if err := s.restore(inst.Name, data); err != nil {
			return fmt.Errorf("exp: restore %s: %w", opts.RestoreFrom, err)
		}
	case s.cfg.WarmLLC && opts.WarmStore != nil:
		key, err := warmKey(inst, s.cfg)
		if err != nil {
			return err
		}
		if data, ok := opts.WarmStore.Get(key); ok {
			if err := s.restore(inst.Name, data); err != nil {
				return fmt.Errorf("exp: restore cached warm-up %s: %w", key, err)
			}
			break
		}
		if err := s.warmLLC(inst); err != nil {
			return fmt.Errorf("exp: warm: %w", err)
		}
		data, err := s.checkpoint(inst.Name)
		if err != nil {
			return fmt.Errorf("exp: checkpoint warm-up: %w", err)
		}
		if err := opts.WarmStore.Put(key, data); err != nil {
			return err
		}
	case s.cfg.WarmLLC:
		if err := s.warmLLC(inst); err != nil {
			return fmt.Errorf("exp: warm: %w", err)
		}
	}
	if opts.CheckpointTo != "" {
		data, err := s.checkpoint(inst.Name)
		if err != nil {
			return fmt.Errorf("exp: checkpoint: %w", err)
		}
		if err := os.WriteFile(opts.CheckpointTo, data, 0o644); err != nil {
			return fmt.Errorf("exp: checkpoint: %w", err)
		}
	}
	return nil
}
