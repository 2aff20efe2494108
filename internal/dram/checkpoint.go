package dram

import (
	"fmt"

	"dx100/internal/sample/ckpt"
)

// Quiet reports whether every channel's request buffer is empty — the
// precondition for checkpointing the memory system (an in-flight
// request's completion callback cannot be serialized).
func (s *System) Quiet() bool {
	for _, ch := range s.chans {
		if len(ch.queue) > 0 {
			return false
		}
	}
	return true
}

// CheckpointSave implements ckpt.Checkpointable: per-channel bank
// rows and JEDEC timing trackers. The request buffers must be empty.
func (s *System) CheckpointSave(w *ckpt.Writer) error {
	for i, ch := range s.chans {
		if n := len(ch.queue); n > 0 {
			return fmt.Errorf("dram: channel %d has %d queued requests at checkpoint", i, n)
		}
	}
	w.U32(uint32(len(s.chans)))
	for _, ch := range s.chans {
		saveChannel(w, ch)
	}
	return nil
}

// CheckpointLoad implements ckpt.Checkpointable.
func (s *System) CheckpointLoad(r *ckpt.Reader) error {
	if n := int(r.U32()); n != len(s.chans) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("dram: checkpoint has %d channels, system has %d", n, len(s.chans))
	}
	for _, ch := range s.chans {
		if err := loadChannel(r, ch); err != nil {
			return err
		}
	}
	return r.Err()
}

func saveChannel(w *ckpt.Writer, ch *channel) {
	w.U32(uint32(len(ch.banks)))
	for i := range ch.banks {
		b := &ch.banks[i]
		w.I64(int64(b.openRow))
		w.U64(b.nextAct)
		w.U64(b.nextRead)
		w.U64(b.nextWrite)
		w.U64(b.nextPre)
	}
	w.U64(ch.seq)
	w.U64(ch.nextCASAny)
	w.U32(uint32(len(ch.nextCASPerBG)))
	for _, v := range ch.nextCASPerBG {
		w.U64(v)
	}
	w.U64(ch.nextACTAny)
	for _, v := range ch.nextACTPerBG {
		w.U64(v)
	}
	for _, v := range ch.actWindow {
		w.U64(v)
	}
	w.Int(ch.actWindowPos)
	w.Int(ch.actCount)
	w.U64(ch.nextReadOK)
	w.U64(ch.nextWriteOK)
	w.U64(ch.nextRefresh)
	w.U64(ch.refreshes)
}

func loadChannel(r *ckpt.Reader, ch *channel) error {
	if n := int(r.U32()); n != len(ch.banks) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("dram: checkpoint has %d banks, channel has %d", n, len(ch.banks))
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		b.openRow = int(r.I64())
		b.hits = 0 // a checkpoint holds no queued requests
		b.nextAct = r.U64()
		b.nextRead = r.U64()
		b.nextWrite = r.U64()
		b.nextPre = r.U64()
	}
	ch.seq = r.U64()
	ch.nextCASAny = r.U64()
	if n := int(r.U32()); n != len(ch.nextCASPerBG) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("dram: checkpoint has %d bank groups, channel has %d", n, len(ch.nextCASPerBG))
	}
	for i := range ch.nextCASPerBG {
		ch.nextCASPerBG[i] = r.U64()
	}
	ch.nextACTAny = r.U64()
	for i := range ch.nextACTPerBG {
		ch.nextACTPerBG[i] = r.U64()
	}
	for i := range ch.actWindow {
		ch.actWindow[i] = r.U64()
	}
	ch.actWindowPos = r.Int()
	ch.actCount = r.Int()
	ch.nextReadOK = r.U64()
	ch.nextWriteOK = r.U64()
	ch.nextRefresh = r.U64()
	ch.refreshes = r.U64()
	// The earliest-action cache describes pre-restore state.
	ch.hintValid = false
	return r.Err()
}
