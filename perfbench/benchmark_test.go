package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists in step
// with what the command prints.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file, code []struct{ Name, Unit string }) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, the command %v", kind, i, file[i], code[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
