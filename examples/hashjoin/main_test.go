package main

import "testing"

// TestExample runs the example end to end; the example exits non-zero
// on any error.
func TestExample(t *testing.T) { main() }
