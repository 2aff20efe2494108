package memspace

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	sp := New()
	a := sp.Alloc("a", 100)
	b := sp.Alloc("b", HugePageSize+1)
	c := sp.Alloc("c", 64)
	for _, r := range []Region{a, b, c} {
		if uint64(r.Base)%HugePageSize != 0 {
			t.Fatalf("region %s base %#x not huge-page aligned", r.Name, uint64(r.Base))
		}
	}
	if a.End() > b.Base || b.End() > c.Base {
		t.Fatal("regions overlap")
	}
	if b.Base != a.Base+HugePageSize {
		t.Fatalf("b.Base = %#x, want %#x", uint64(b.Base), uint64(a.Base+HugePageSize))
	}
	// b spans two huge pages, so c starts two pages after b.
	if c.Base != b.Base+2*HugePageSize {
		t.Fatalf("c.Base = %#x, want %#x", uint64(c.Base), uint64(b.Base+2*HugePageSize))
	}
}

func TestTranslateConsistency(t *testing.T) {
	sp := New()
	r := sp.Alloc("x", 3*HugePageSize)
	// Offsets within a page are preserved.
	for _, off := range []uint64{0, 1, 63, HugePageSize - 1, HugePageSize, 2*HugePageSize + 12345} {
		pa := sp.Translate(r.Base + VAddr(off))
		if uint64(pa)%HugePageSize != off%HugePageSize {
			t.Fatalf("offset not preserved: off=%d pa=%#x", off, uint64(pa))
		}
	}
	// Distinct pages map to distinct frames.
	p0 := sp.Translate(r.Base) >> HugePageBits
	p1 := sp.Translate(r.Base+HugePageSize) >> HugePageBits
	if p0 == p1 {
		t.Fatal("two virtual pages share a frame")
	}
}

func TestTranslateUnmappedPanics(t *testing.T) {
	sp := New()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unmapped translate")
		}
	}()
	sp.Translate(0xdeadbeef000)
}

func TestReadWriteWord(t *testing.T) {
	sp := New()
	r := sp.Alloc("w", 64)
	sp.WriteWord(r.Base, 8, 0x1122334455667788)
	if got := sp.ReadWord(r.Base, 8); got != 0x1122334455667788 {
		t.Fatalf("ReadWord8 = %#x", got)
	}
	// Little-endian: low 4 bytes first.
	if got := sp.ReadWord(r.Base, 4); got != 0x55667788 {
		t.Fatalf("ReadWord4 = %#x", got)
	}
	sp.WriteWord(r.Base+4, 4, 0xCAFEBABE)
	if got := sp.ReadWord(r.Base, 8); got != 0xCAFEBABE55667788 {
		t.Fatalf("mixed = %#x", got)
	}
}

// TestWordsView: a view reads and writes the same little-endian words
// as ReadWord and WriteWord, and Space.Words refuses a range outside
// one allocation.
func TestWordsView(t *testing.T) {
	sp := New()
	r := sp.Alloc("w", 64)
	sp.Alloc("next", 64)
	w4, err := sp.Words(r.Base+8, 4, 14)
	if err != nil {
		t.Fatal(err)
	}
	w8, err := sp.Words(r.Base, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	w8.Set(1, 0x1122334455667788)
	if got := w4.Get(0); got != 0x55667788 {
		t.Fatalf("4-byte view of an 8-byte word = %#x", got)
	}
	w4.Set(13, 0xCAFEBABE1)
	if got := sp.ReadWord(r.Base+60, 4); got != 0xAFEBABE1 {
		t.Fatalf("ReadWord after a truncating Set = %#x", got)
	}
	sp.WriteWord(r.Base+56, 8, 7)
	if got := w8.Get(7); got != 7 || w8.Addr(7) != r.Base+56 || w4.Addr(1) != r.Base+12 {
		t.Fatalf("Get(7) = %d, Addr(7) = %#x, Addr(1) = %#x", got, uint64(w8.Addr(7)), uint64(w4.Addr(1)))
	}
	for _, bad := range []struct {
		va   VAddr
		size int
		n    int
	}{
		{r.Base, 8, 9},      // overruns the allocation
		{r.Base + 64, 4, 1}, // starts past its end
		{0, 8, 1},           // page 0 is never mapped
		{r.Base, 2, 1},      // unsupported word size
		{r.Base + 60, 8, 1}, // a word straddling the end
	} {
		if _, err := sp.Words(bad.va, bad.size, bad.n); err == nil {
			t.Errorf("Words(%#x, %d, %d) accepted", uint64(bad.va), bad.size, bad.n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get past the view's end did not panic")
		}
	}()
	w8.Get(8)
}

func TestRegionOf(t *testing.T) {
	sp := New()
	a := sp.Alloc("a", 128)
	b := sp.Alloc("b", 128)
	if got := sp.RegionOf(a.Base + 5); got.Name != "a" {
		t.Fatalf("RegionOf(a+5) = %q", got.Name)
	}
	if got := sp.RegionOf(b.Base); got.Name != "b" {
		t.Fatalf("RegionOf(b) = %q", got.Name)
	}
	if n := len(sp.Regions()); n != 2 {
		t.Fatalf("Regions len = %d", n)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(uint64(0x1007F)) != 0x10040 {
		t.Fatalf("LineAddr = %#x", LineAddr(uint64(0x1007F)))
	}
}

// Property: translation preserves the in-page offset and is injective
// across pages of one allocation.
func TestTranslateProperty(t *testing.T) {
	sp := New()
	r := sp.Alloc("p", 8*HugePageSize)
	f := func(off uint32) bool {
		o := uint64(off) % (8 * HugePageSize)
		pa := sp.Translate(r.Base + VAddr(o))
		return uint64(pa)&(HugePageSize-1) == o&(HugePageSize-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
