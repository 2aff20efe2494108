package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"dx100/internal/workloads"
)

// Most pins in this package compare a variant of a run (pooled, exact
// stepped, profiled, traced, hooked, or simply run again) with the same
// run done plainly. The plain side reads a reference: each cell is
// simulated once per test binary, on first use, and every pin that
// needs it reads the same bytes. Each pin still simulates fresh the
// variant it exists to test.

// cell is one plain run: a registered workload at a scale, its system,
// its sampling and its stepping.
type cell struct {
	name     string
	scale    int
	cfg      SystemConfig
	sampling *SamplingConfig
	noFF     bool
}

// plain is the cell of name at scale 1 on mode's default system.
func plain(name string, mode Mode) cell {
	return cell{name: name, scale: 1, cfg: Default(mode)}
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/noff=%v", c.name, c.cfg.Mode, c.noFF)
}

// key is the cell's content address, its Spec's canonical form, plus
// its stepping, which a Spec does not carry.
func (c cell) key() string {
	spec, err := Spec{Workload: c.name, Scale: c.scale, Config: c.cfg, Sampling: c.sampling}.Canonical()
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s noff=%v", spec, c.noFF)
}

// reference is what a cell's one simulation leaves behind. It holds
// only immutable values, so no pin can change what another reads.
type reference struct {
	wire    string   // ResultJSON
	key     string   // resultKey
	metrics string   // JSON of the run's Stats.Snapshot (dx100sim -metrics)
	mem     [32]byte // memDigest of every kernel array after the run
}

// String is everything observable about the run: its full-precision
// key and its wire form.
func (r reference) String() string { return r.key + r.wire }

// result decodes a fresh Result from the reference.
func (r reference) result(t testing.TB) Result {
	t.Helper()
	res, err := DecodeResult([]byte(r.wire))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// references maps a cell's key to a function that simulates the cell
// once, under its own sync.Once, and returns its reference.
var references sync.Map

// ref returns c's reference, simulating the cell on first use.
func ref(t testing.TB, c cell) reference {
	t.Helper()
	v, _ := references.LoadOrStore(c.key(), sync.OnceValues(func() (reference, error) { return simulate(c) }))
	r, err := v.(func() (reference, error))()
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return r
}

func simulate(c cell) (reference, error) {
	b, ok := workloads.Registry[c.name]
	if !ok {
		return reference{}, fmt.Errorf("unknown workload %q", c.name)
	}
	inst := b(c.scale)
	res, err := RunInstanceOpts(inst, c.cfg, RunOptions{Sampling: c.sampling, NoFastForward: c.noFF})
	if err != nil {
		return reference{}, err
	}
	wire, err := ResultJSON(res)
	if err != nil {
		return reference{}, err
	}
	metrics, err := json.Marshal(res.Stats.Snapshot())
	if err != nil {
		return reference{}, err
	}
	return reference{wire: string(wire), key: resultKey(res), metrics: string(metrics), mem: memDigest(arrays(inst))}, nil
}

// arrays reads the current contents of every kernel array of inst.
func arrays(inst *workloads.Instance) map[string][]uint64 {
	state := map[string][]uint64{}
	for _, k := range inst.Kernels {
		for name, info := range k.Arrays {
			if _, ok := state[name]; ok {
				continue
			}
			vals := make([]uint64, info.Len)
			for i := range vals {
				vals[i] = inst.Read(name, i)
			}
			state[name] = vals
		}
	}
	return state
}

// memDigest folds arrays into one digest, in name order.
func memDigest(state map[string][]uint64) [32]byte {
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		buf := binary.LittleEndian.AppendUint64([]byte(name), uint64(len(state[name])))
		for _, v := range state[name] {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	return [32]byte(h.Sum(nil))
}

// wireOf is r's wire form.
func wireOf(t testing.TB, r Result) string {
	t.Helper()
	b, err := ResultJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireSame fails t when a variant of a run renders differently from
// the run it is pinned to.
func requireSame(t testing.TB, what, want, got string) {
	t.Helper()
	if want != got {
		t.Errorf("%s differs:\n--- want ---\n%s\n--- got ---\n%s", what, want, got)
	}
}

// refRows is MainEvaluation(1, names, withDMP) read from references,
// with the rowsKey of those rows.
func refRows(t testing.TB, names []string, withDMP bool) ([]MainRow, string) {
	t.Helper()
	var key strings.Builder
	read := func(name string, mode Mode) Result {
		r := ref(t, plain(name, mode))
		key.WriteString(r.key)
		return r.result(t)
	}
	rows := make([]MainRow, len(names))
	for i, name := range names {
		rows[i] = MainRow{Workload: name, Base: read(name, Baseline), DX: read(name, DX), HasDMP: withDMP}
		if withDMP {
			rows[i].DMP = read(name, DMP)
		}
	}
	return rows, key.String()
}
