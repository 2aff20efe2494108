package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecCanonical fuzzes the content-addressing layer the dx100d
// result cache is built on. The invariants:
//
//  1. Canonical never fails and is deterministic.
//  2. Canonical → parse → Canonical round-trips to the same bytes
//     (canonicalization is idempotent).
//  3. The Hash is stable under JSON key reordering: a document with
//     the same fields in any order re-canonicalizes to the same bytes
//     and therefore the same content address.
//  4. Any semantic mutation moves the address.
//
// Fuzzed ints are folded into ±2^30 so they survive the float64 hop a
// generic-JSON reordering pass takes; spec fields themselves are int64
// on the wire.
func FuzzSpecCanonical(f *testing.F) {
	// Seeds mirror the specs the serve end-to-end tests submit.
	f.Add("micro.gather", 1, false, 0, 0)
	f.Add("IS", 8, true, 4096, 8<<20)
	f.Add("micro.rmw", 2, false, 1024, 1<<20)
	f.Add("no-such-workload \xff", -3, true, -1, 123)
	f.Fuzz(func(t *testing.T, workload string, scale int, baseline bool, tileElems, llcBytes int) {
		const fold = 1 << 30
		scale %= fold
		mode := DX
		if baseline {
			mode = Baseline
		}
		cfg := Default(mode)
		if tileElems > 0 {
			cfg.Accel.Machine.TileElems = tileElems % fold
		}
		if llcBytes > 0 {
			cfg.LLCBytes = llcBytes % fold
		}
		sp := Spec{Workload: workload, Scale: scale, Config: cfg}

		c1, err := sp.Canonical()
		if err != nil {
			t.Fatalf("Canonical failed: %v", err)
		}
		c1again, err := sp.Canonical()
		if err != nil || !bytes.Equal(c1, c1again) {
			t.Fatalf("Canonical not deterministic (%v):\n%s\n%s", err, c1, c1again)
		}

		// Idempotence: parsing the canonical form and re-canonicalizing
		// must reproduce it byte for byte. (Invalid UTF-8 in the fuzzed
		// workload is sanitized by the first encoding, so the parsed
		// spec is the canonical one.)
		var back Spec
		if err := json.Unmarshal(c1, &back); err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, c1)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s", c1, c2)
		}

		// Key-order independence: push the document through a generic
		// map (which re-emits keys in sorted order, generally different
		// from struct declaration order), parse that, and re-canonicalize.
		var generic map[string]any
		if err := json.Unmarshal(c1, &generic); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.Marshal(generic)
		if err != nil {
			t.Fatal(err)
		}
		var fromReordered Spec
		if err := json.Unmarshal(reordered, &fromReordered); err != nil {
			t.Fatalf("reordered form does not parse: %v\n%s", err, reordered)
		}
		c3, err := fromReordered.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c3) {
			t.Fatalf("canonical form depends on input key order:\n%s\n%s", c1, c3)
		}
		h1, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h3, err := fromReordered.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h3 {
			t.Fatalf("hash moved under key reordering: %s vs %s", h1, h3)
		}

		// Sensitivity: a semantic change must move the address.
		mut := sp
		mut.Scale = sp.Scale + 1
		hm, err := mut.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hm == h1 {
			t.Fatalf("scale change did not move the hash: %s", h1)
		}
	})
}
