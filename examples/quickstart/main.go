// Quickstart: the manual DX100 programming API of §4.1.
//
// It allocates two arrays in simulated memory, hand-writes the
// three-instruction gather program of Figure 7 (stream the indices,
// gather the data, store the result), executes it on the functional
// DX100 machine, and verifies it against the plain loop.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dx100/internal/dx100"
	"dx100/internal/memspace"
)

func main() {
	const n = 1024
	sp := memspace.New()
	// Each array is an allocation of 32-bit words, read and written
	// through a view of its words.
	alloc := func(name string, n int) memspace.Words {
		w, err := sp.Words(sp.Alloc(name, 4*uint64(n)).Base, 4, n)
		if err != nil {
			log.Fatal(err)
		}
		return w
	}
	a, b, c := alloc("A", 1<<16), alloc("B", n), alloc("C", n)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < a.Len(); i++ {
		a.Set(i, uint64(rng.Uint32()))
	}
	for i := 0; i < n; i++ {
		b.Set(i, uint64(rng.Intn(a.Len())))
	}

	// The DX100 version of `for i { C[i] = A[B[i]] }` (Figure 7d):
	//   SLD  B -> tile0          (stream the index tile)
	//   ILD  A[tile0] -> tile1   (indirect gather)
	//   SST  tile1 -> C          (stream the packed result back)
	m := dx100.NewMachine(sp, dx100.DefaultMachineConfig())
	m.SetReg(0, 0) // loop start
	m.SetReg(1, n) // loop count
	m.SetReg(2, 1) // stride
	prog := []dx100.Instr{
		{Op: dx100.SLD, DType: dx100.U32, Base: b.Base(), TD: 0, RS1: 0, RS2: 1, RS3: 2, TC: dx100.NoTile},
		{Op: dx100.ILD, DType: dx100.U32, Base: a.Base(), TD: 1, TS1: 0, TC: dx100.NoTile},
		{Op: dx100.SST, DType: dx100.U32, Base: c.Base(), TS1: 1, RS1: 0, RS2: 1, RS3: 2, TC: dx100.NoTile},
	}
	if err := m.ExecProgram(prog); err != nil {
		log.Fatal(err)
	}

	// Verify against the legacy loop of Figure 7a.
	for i := 0; i < n; i++ {
		want := a.Get(int(b.Get(i)))
		if got := c.Get(i); got != want {
			log.Fatalf("C[%d] = %d, want %d", i, got, want)
		}
	}
	fmt.Printf("gather of %d elements verified: C[0..3] = %d %d %d %d\n",
		n, c.Get(0), c.Get(1), c.Get(2), c.Get(3))
	fmt.Printf("executed %d DX100 instructions in place of %d scalar loop iterations\n",
		m.Executed, n)
}
