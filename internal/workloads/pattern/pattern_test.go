package pattern

import (
	"bytes"
	"os"
	"testing"

	"dx100/internal/dx100"
	"dx100/internal/loopir"
)

// TestParseSpatterArrayForm: a bare Spatter entry array (the format
// Spatter's own JSON suites use) parses, normalizes kernel case and
// defaults the count.
func TestParseSpatterArrayForm(t *testing.T) {
	f, err := Parse([]byte(`[{"kernel": "Gather", "pattern": [0, 2, 4, 6], "delta": 8}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 1 {
		t.Fatalf("parsed %d entries", len(f.Entries))
	}
	e := f.Entries[0]
	if e.Kernel != "gather" || e.Count != 1 || e.Delta != 8 {
		t.Fatalf("normalized entry = %+v", e)
	}
	if f.InstanceName() != "pattern" {
		t.Fatalf("anonymous instance name = %q", f.InstanceName())
	}
}

// TestParseGoldenFile: the committed golden file parses and compiles;
// the compiled instance's index arrays hold the expanded pattern.
func TestParseGoldenFile(t *testing.T) {
	data, err := os.ReadFile("testdata/xrage_like.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.InstanceName() != "pattern:xrage-like" {
		t.Fatalf("instance name = %q", f.InstanceName())
	}
	inst, err := Compile(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Entry 0: gather, pattern [0,1,2,3,8,9,10,11], delta 16 —
	// B0[8+j] is pattern[j]+16.
	if got := inst.Read("B0", 8); got != 16 {
		t.Errorf("B0[8] = %d, want 16", got)
	}
	if got := inst.Read("B0", 12); got != 16+8 {
		t.Errorf("B0[12] = %d, want 24", got)
	}
	if n := inst.Len("B0"); n != 8*512 {
		t.Errorf("B0 length %d, want %d", n, 8*512)
	}
	// Entry 1: scatter span = 28 + 32*255 + 1.
	if n := inst.Len("A1"); n != 28+32*255+1 {
		t.Errorf("A1 length %d, want %d", n, 28+32*255+1)
	}
	if len(inst.DMP()) != 4 {
		t.Errorf("DMP patterns = %d, want 4 (gather, scatter, gs x2)", len(inst.DMP()))
	}
}

// TestCompiledPatternMatchesInterpreter: all three kernel forms
// compile for DX100 and reproduce the reference interpreter's memory
// state — the same verification flow registered workloads go through.
func TestCompiledPatternMatchesInterpreter(t *testing.T) {
	data, err := os.ReadFile("testdata/xrage_like.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Compile(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reference state via the interpreter.
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
	for _, k := range inst.Kernels {
		if err := loopir.Legal(k); err != nil {
			t.Fatalf("%s illegal: %v", k.Name, err)
		}
		env := &loopir.Env{Arrays: state, Params: k.Params}
		if err := loopir.Interpret(k, env); err != nil {
			t.Fatalf("interpret %s: %v", k.Name, err)
		}
	}
	m := dx100.NewMachine(inst.Space, dx100.DefaultMachineConfig())
	for ki, k := range inst.Kernels {
		c, err := loopir.Compile(k, inst.Binder, m.Config().TileElems)
		if err != nil {
			t.Fatalf("compile %s: %v", k.Name, err)
		}
		if err := c.Run(m, inst.ChunkFor(ki, m.Config().TileElems)); err != nil {
			t.Fatalf("run %s: %v", k.Name, err)
		}
	}
	for name, vals := range state {
		for i, w := range vals {
			if got := inst.Read(name, i); got != w {
				t.Fatalf("%s[%d] = %#x, want %#x", name, i, got, w)
			}
		}
	}
}

// TestCompileDeterministic: two compiles of the same file are
// byte-identical — required for rebuild sites (per-mode runs,
// checkpoint restore) and the content-addressed cache.
func TestCompileDeterministic(t *testing.T) {
	data, _ := os.ReadFile("testdata/xrage_like.json")
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compile(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range a.Kernels {
		for name := range k.Arrays {
			if a.Len(name) != b.Len(name) {
				t.Fatalf("%s: lengths differ", name)
			}
			for i := 0; i < a.Len(name); i++ {
				if a.Read(name, i) != b.Read(name, i) {
					t.Fatalf("%s[%d] differs", name, i)
				}
			}
		}
	}
}

// TestScaleMultipliesTrafficNotSpan: scale re-walks the pattern
// rather than growing the footprint — the same contract the built-in
// builders keep between iteration count and dataset identity.
func TestScaleMultipliesTrafficNotSpan(t *testing.T) {
	f, err := Parse([]byte(`[{"kernel": "gather", "pattern": [0, 1], "delta": 4, "count": 8}]`))
	if err != nil {
		t.Fatal(err)
	}
	one, _ := Compile(f, 1)
	three, _ := Compile(f, 3)
	if got, want := three.Len("B0"), 3*one.Len("B0"); got != want {
		t.Errorf("scale 3 index count %d, want %d", got, want)
	}
	if one.Len("A0") != three.Len("A0") {
		t.Errorf("scale changed the footprint: %d vs %d", one.Len("A0"), three.Len("A0"))
	}
	// The revisit wraps: index count*len + j equals index j again.
	n1 := one.Len("B0")
	for j := 0; j < 4; j++ {
		if three.Read("B0", n1+j) != three.Read("B0", j) {
			t.Fatalf("scaled revisit diverges at %d", j)
		}
	}
}

// TestCanonicalRoundTrip: Canonical is a fixed point under Parse.
func TestCanonicalRoundTrip(t *testing.T) {
	data, _ := os.ReadFile("testdata/xrage_like.json")
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := f.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Parse(c1)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	c2, err := f2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonicalization not idempotent:\n%s\nvs\n%s", c1, c2)
	}
}

// TestValidateRejects: structural garbage and cap violations fail with
// errors, not panics or allocation storms.
func TestValidateRejects(t *testing.T) {
	bad := []string{
		`{}`,                     // no entries
		`[]`,                     // no entries
		`[{"kernel": "knife"}]`,  // unknown kernel
		`[{"kernel": "gather"}]`, // no pattern
		`[{"kernel": "gather", "pattern": [-1]}]`,                              // negative index
		`[{"kernel": "gather", "pattern": [0], "count": -2}]`,                  // negative count
		`[{"kernel": "gather", "pattern": [0], "delta": -8}]`,                  // negative delta
		`[{"kernel": "gather", "pattern": [0], "count": 999999999}]`,           // count cap
		`[{"kernel": "gather", "pattern": [99999999], "count": 1}]`,            // span cap
		`[{"kernel": "gather", "pattern": [0], "wrap": -3}]`,                   // negative wrap
		`[{"kernel": "gather", "pattern": [8], "wrap": 4}]`,                    // index outside wrap
		`[{"kernel": "gs", "pattern_gather": [0]}]`,                            // missing scatter side
		`[{"kernel": "gs", "pattern_gather": [0], "pattern_scatter": [0, 1]}]`, // length mismatch
		`[{"kernel": "gather", "pattern": [0, 1], "count": 262144}]`,           // entry index cap
		`not json at all`,
	}
	for _, in := range bad {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

// TestWrapFoldsIndices: wrap bounds the footprint like Spatter's
// bounded mode.
func TestWrapFoldsIndices(t *testing.T) {
	f, err := Parse([]byte(`[{"kernel": "scatter", "pattern": [0, 1], "delta": 3, "count": 100, "wrap": 16}]`))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Compile(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := inst.Len("A0"); n != 16 {
		t.Fatalf("wrapped span %d, want 16", n)
	}
	for i := 0; i < inst.Len("B0"); i++ {
		if v := inst.Read("B0", i); v >= 16 {
			t.Fatalf("B0[%d] = %d escapes wrap 16", i, v)
		}
	}
}
