package rdd

import "sync"

// Sizer measures records of one concrete type without boxing them into an
// interface. The engine's charge accounting runs a sizer over every record
// that crosses a materialization point, so the per-record `SizeOf(any(v))`
// interface conversion — one heap allocation per record on the old path —
// is replaced by a direct call resolved once per RDD operation.
//
// A sizer must agree exactly with SizeOf for its type: the virtual ledger
// (charged bytes, and through them virtual time) is frozen, and the parity
// tests pin every registered sizer against SizeOf. Sizers change how fast
// the host computes the ledger, never what the ledger says.
type Sizer[T any] struct {
	fn    func(T) int64
	fixed int64 // >0 when every value of T has this size
}

// Of returns the nominal in-memory footprint of v in bytes.
func (s Sizer[T]) Of(v T) int64 {
	if s.fn == nil {
		return s.fixed
	}
	return s.fn(v)
}

// Fixed reports the constant size of T's values, if every value has one.
// Fixed-size records let aggregation paths account output bytes fully
// incrementally: merges cannot change a fixed-size combiner's footprint.
func (s Sizer[T]) Fixed() (int64, bool) { return s.fixed, s.fixed > 0 }

// FixedSizer builds a sizer for a type whose every value occupies n bytes.
func FixedSizer[T any](n int64) Sizer[T] { return Sizer[T]{fixed: n} }

// FuncSizer builds a sizer from a measuring function.
func FuncSizer[T any](f func(T) int64) Sizer[T] { return Sizer[T]{fn: f} }

// SizedSizer builds a sizer for a record type that implements Sized,
// calling ByteSize through the type parameter so the receiver is never
// boxed. Agreement with SizeOf is by construction: SizeOf's first case
// defers to Sized.ByteSize.
func SizedSizer[T Sized]() Sizer[T] {
	return FuncSizer(func(v T) int64 { return v.ByteSize() })
}

// builtinSizers mirrors SizeOf's scalar and builtin-slice cases, one
// Sizer[X] per case. Resolution type-asserts against the concrete
// Sizer[T], so lookup costs nothing per record.
var builtinSizers = []any{
	FuncSizer(func(s string) int64 { return int64(16 + len(s)) }),
	FuncSizer(func(b []byte) int64 { return int64(24 + len(b)) }),
	FixedSizer[int](8),
	FixedSizer[int64](8),
	FixedSizer[uint64](8),
	FixedSizer[float64](8),
	FixedSizer[int32](8),
	FixedSizer[uint32](8),
	FixedSizer[float32](8),
	FixedSizer[bool](1),
	FixedSizer[int8](1),
	FixedSizer[uint8](1),
	FuncSizer(func(x []int) int64 { return int64(24 + 8*len(x)) }),
	FuncSizer(func(x []int64) int64 { return int64(24 + 8*len(x)) }),
	FuncSizer(func(x []float64) int64 { return int64(24 + 8*len(x)) }),
	FuncSizer(func(x []string) int64 {
		total := int64(24)
		for _, s := range x {
			total += 16 + int64(len(s))
		}
		return total
	}),
}

// sizerMu guards sizerReg. Registration happens from package init
// functions (workloads, ml); resolution happens once per RDD operation.
var sizerMu sync.RWMutex
var sizerReg []any // each element is a Sizer[X] for some concrete X

// RegisterSizer publishes a specialized sizer for a record type, normally
// from a package init function. The sizer must agree exactly with
// SizeOf(any(v)) for every value — the parity test suite enforces this for
// all workload record types. Builtin scalar/slice sizers cannot be
// overridden.
func RegisterSizer[T any](s Sizer[T]) {
	sizerMu.Lock()
	defer sizerMu.Unlock()
	for i, r := range sizerReg {
		if _, ok := r.(Sizer[T]); ok {
			sizerReg[i] = s
			return
		}
	}
	sizerReg = append(sizerReg, s)
}

// RegisterSized publishes the SizedSizer for a Sized record type.
func RegisterSized[T Sized]() { RegisterSizer(SizedSizer[T]()) }

// RegisterPairSizer publishes the composed pair sizer for a concrete
// key/value combination, so generic call sites that only see the pair
// type (Cache, Collect, Parallelize) resolve a non-boxing sizer too.
// Call it after the key and value types themselves are registered.
func RegisterPairSizer[K comparable, V any]() {
	RegisterSizer(PairSizer(SizerFor[K](), SizerFor[V]()))
}

// SizerFor resolves the specialized sizer for T: builtins first (the
// scalar and slice cases of SizeOf), then registered record types, then a
// fallback that defers to SizeOf — correct for any type, but paying the
// boxing cost the specialized paths exist to avoid. Resolve once per RDD
// operation, not per record.
func SizerFor[T any]() Sizer[T] {
	for _, b := range builtinSizers {
		if s, ok := b.(Sizer[T]); ok {
			return s
		}
	}
	sizerMu.RLock()
	defer sizerMu.RUnlock()
	for _, r := range sizerReg {
		if s, ok := r.(Sizer[T]); ok {
			return s
		}
	}
	return FuncSizer(func(v T) int64 {
		//simlint:allow hotbox the correct-for-any-type fallback must box; registered types avoid it
		return SizeOf(any(v))
	})
}

// PairSizer composes key and value sizers into a sizer for the pair,
// matching Pair.ByteSize. The composition is fixed-size when both halves
// are.
func PairSizer[K comparable, V any](ks Sizer[K], vs Sizer[V]) Sizer[Pair[K, V]] {
	if kf, ok := ks.Fixed(); ok {
		if vf, ok := vs.Fixed(); ok {
			return FixedSizer[Pair[K, V]](kf + vf)
		}
	}
	return FuncSizer(func(p Pair[K, V]) int64 { return ks.Of(p.Key) + vs.Of(p.Val) })
}

// SizeSlice sums a slice's footprint — header plus elements — with a
// resolved sizer, constant-folding fixed-size element types. It matches
// SizeOfSlice exactly whenever the sizer matches SizeOf.
func SizeSlice[T any](s []T, sz Sizer[T]) int64 {
	if f, ok := sz.Fixed(); ok {
		return 24 + int64(len(s))*f
	}
	total := int64(24)
	for i := range s {
		total += sz.Of(s[i])
	}
	return total
}
