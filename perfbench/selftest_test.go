package main

import "testing"

// TestSelfTest runs the check every benchmark run starts with: a corrupted
// label must not pass the oracle comparison.
func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}
