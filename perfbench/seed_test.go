package main

import (
	"reflect"
	"sort"
	"testing"

	"dx100/internal/workloads"
)

// dataSum fingerprints every kernel array of an instance.
func dataSum(inst *workloads.Instance) uint64 {
	var names []string
	for _, k := range inst.Kernels {
		for n := range k.Arrays {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return inst.Checksum(names...)
}

func TestTrafficSameSeedSameSequence(t *testing.T) {
	a, b := newTraffic(7), newTraffic(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed produced two different request sequences")
	}
	ca, cb := simCases("sampled", 7), simCases("sampled", 7)
	for i := range ca {
		ia, ib := ca[i].Build(), cb[i].Build()
		if ca[i].Label != cb[i].Label || dataSum(ia) != dataSum(ib) {
			t.Fatalf("case %d: one seed built two different instances", i)
		}
	}
}

func TestTrafficSeedsDiffer(t *testing.T) {
	a, b := newTraffic(1), newTraffic(2)
	if reflect.DeepEqual(a.Requests, b.Requests) {
		t.Error("seeds 1 and 2 gave the same request order")
	}
	if reflect.DeepEqual(a.Specs, b.Specs) {
		t.Error("seeds 1 and 2 gave the same pattern files")
	}
	g1, g2 := simCases("cores", 1)[4].Build(), simCases("cores", 2)[4].Build()
	if dataSum(g1) == dataSum(g2) {
		t.Error("seeds 1 and 2 gave the same skewed graph")
	}
	// Registry datasets do not vary with the seed.
	if dataSum(simCases("cores", 1)[0].Build()) != dataSum(simCases("cores", 2)[0].Build()) {
		t.Error("a registry dataset changed with the seed")
	}
}

func TestTrafficMix(t *testing.T) {
	tr := newTraffic(3)
	if len(tr.Requests) != blockLen*seqBlocks {
		t.Fatalf("%d requests, want %d", len(tr.Requests), blockLen*seqBlocks)
	}
	seen := map[int]bool{}
	for b := 0; b < seqBlocks; b++ {
		modes := map[string]int{}
		for i, r := range tr.Requests[b*blockLen : (b+1)*blockLen] {
			if r.Fresh {
				if seen[r.Spec] {
					t.Fatalf("block %d request %d: spec %d is fresh twice", b, i, r.Spec)
				}
				modes[tr.Specs[r.Spec].Mode]++
			} else if !seen[r.Spec] {
				t.Fatalf("block %d request %d repeats spec %d before its first submission", b, i, r.Spec)
			}
			seen[r.Spec] = true
		}
		if modes["baseline"] != 1 || modes["dx100"] != 1 {
			t.Fatalf("block %d: fresh modes %v, want one baseline and one dx100", b, modes)
		}
	}
	for i, s := range tr.Specs {
		if err := s.Pattern.Validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
}
