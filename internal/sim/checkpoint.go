package sim

import (
	"fmt"

	"dx100/internal/sample/ckpt"
)

// Checkpointing: the engine and the stats registry serialize into the
// ckpt container. The engine only checkpoints at quiescent points —
// no pending events — because an event closure cannot be serialized;
// the experiment harness arranges such a point (after functional
// warm-up, before streams attach) and the Save methods enforce it.

// EventsPending reports whether the event heap holds undelivered
// events. A checkpoint requires it empty; the sampler's drain
// predicate also polls this.
func (e *Engine) EventsPending() bool {
	return e.events.len() > 0
}

// CheckpointSave implements ckpt.Checkpointable: clock position,
// event sequence and the fast-forward accounting. Scheduled events
// cannot be serialized, so a non-quiescent engine refuses.
func (e *Engine) CheckpointSave(w *ckpt.Writer) error {
	if e.EventsPending() {
		return fmt.Errorf("sim: engine has %d pending events at checkpoint", e.events.len())
	}
	w.U64(uint64(e.now))
	w.U64(e.seq)
	w.U64(e.ffJumps)
	w.U64(e.ffSkipped)
	return nil
}

// CheckpointLoad implements ckpt.Checkpointable.
func (e *Engine) CheckpointLoad(r *ckpt.Reader) error {
	if e.EventsPending() {
		return fmt.Errorf("sim: restoring into an engine with pending events")
	}
	e.now = Cycle(r.U64())
	e.seq = r.U64()
	e.ffJumps = r.U64()
	e.ffSkipped = r.U64()
	return r.Err()
}

// statsCheckpoint adapts Stats to ckpt.Checkpointable: the touched
// counters, sorted by name (the same canonical order as the JSON wire
// form), each as name + value. Load clears nothing — it is applied to
// a freshly built registry — and marks every restored counter
// touched, matching UnmarshalJSON's round-trip contract.
type statsCheckpoint struct{ s *Stats }

// Checkpoint returns the stats registry's ckpt adapter.
func (s *Stats) Checkpoint() ckpt.Checkpointable { return statsCheckpoint{s} }

func (c statsCheckpoint) CheckpointSave(w *ckpt.Writer) error {
	names := c.s.Names()
	w.U32(uint32(len(names)))
	for _, n := range names {
		w.String(n)
		w.F64(c.s.Get(n))
	}
	return nil
}

func (c statsCheckpoint) CheckpointLoad(r *ckpt.Reader) error {
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		name := r.String()
		v := r.F64()
		if r.Err() == nil {
			c.s.Set(name, v)
		}
	}
	return r.Err()
}
