package memspace

import "math"

// Scalar is the set of element types DX100 supports (the DTYPE operand
// of Table 2: u32, i32, f32, u64, i64, f64).
type Scalar interface {
	~uint32 | ~int32 | ~float32 | ~uint64 | ~int64 | ~float64
}

// Array is a typed view over a region of simulated memory. It is the
// primary way workloads build their data structures; both the CPU
// models and DX100 observe the same underlying bytes.
type Array[T Scalar] struct {
	sp   *Space
	base VAddr
	n    int
}

// NewArray allocates an n-element array of T under the given name.
func NewArray[T Scalar](sp *Space, name string, n int) Array[T] {
	var z T
	r := sp.Alloc(name, uint64(n)*uint64(sizeOf(z)))
	return Array[T]{sp: sp, base: r.Base, n: n}
}

// sizeOf returns the byte width of a scalar element.
func sizeOf[T Scalar](T) int {
	var z T
	switch any(z).(type) {
	case uint32, int32, float32:
		return 4
	default:
		return 8
	}
}

// ElemSize returns the byte width of the array's elements.
func (a Array[T]) ElemSize() int { var z T; return sizeOf(z) }

// Len returns the number of elements.
func (a Array[T]) Len() int { return a.n }

// Base returns the virtual address of element 0.
func (a Array[T]) Base() VAddr { return a.base }

// Addr returns the virtual address of element i.
func (a Array[T]) Addr(i int) VAddr {
	return a.base + VAddr(i*a.ElemSize())
}

// Get reads element i.
func (a Array[T]) Get(i int) T {
	if i < 0 || i >= a.n {
		panic("memspace: array index out of range")
	}
	raw := a.sp.ReadWord(a.Addr(i), a.ElemSize())
	return fromBits[T](raw)
}

// Set writes element i.
func (a Array[T]) Set(i int, v T) {
	if i < 0 || i >= a.n {
		panic("memspace: array index out of range")
	}
	a.sp.WriteWord(a.Addr(i), a.ElemSize(), toBits(v))
}

// Fill sets every element to v.
func (a Array[T]) Fill(v T) {
	for i := 0; i < a.n; i++ {
		a.Set(i, v)
	}
}

// toBits converts a scalar to its raw little-endian word.
func toBits[T Scalar](v T) uint64 {
	switch x := any(v).(type) {
	case uint32:
		return uint64(x)
	case int32:
		return uint64(uint32(x))
	case float32:
		return uint64(math.Float32bits(x))
	case uint64:
		return x
	case int64:
		return uint64(x)
	case float64:
		return math.Float64bits(x)
	default:
		panic("memspace: unsupported scalar")
	}
}

// fromBits converts a raw word back to the scalar type.
func fromBits[T Scalar](raw uint64) T {
	var z T
	switch any(z).(type) {
	case uint32:
		return any(uint32(raw)).(T)
	case int32:
		return any(int32(uint32(raw))).(T)
	case float32:
		return any(math.Float32frombits(uint32(raw))).(T)
	case uint64:
		return any(raw).(T)
	case int64:
		return any(int64(raw)).(T)
	case float64:
		return any(math.Float64frombits(raw)).(T)
	default:
		panic("memspace: unsupported scalar")
	}
}
