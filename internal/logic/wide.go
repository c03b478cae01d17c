// Wide words: 64 simulation lanes packed into one value.
//
// A Word holds one four-valued {X,0,1,Z} signal level for each of 64
// independent simulation lanes (test vectors), in a dual-plane encoding:
// lane k of plane L and lane k of plane H together select the level.
//
//	L=1 H=0  ->  0
//	L=0 H=1  ->  1
//	L=1 H=1  ->  X
//	L=0 H=0  ->  Z
//
// The encoding is chosen so the gate operations in tables.go are pure
// bitwise formulas (branch-free, 64 lanes per machine op): resolution is a
// plane-OR, strength normalization (Z -> X) is a single mask, and AND/OR
// are dual plane formulas. Two-valued lanes use the same encoding — {0,1}
// is closed under every operation — so one Word type serves both the
// two-valued and four-valued systems; PackBits/Bits convert to and from
// plain bit masks for two-valued workloads.
//
// The wide algebra is exact with respect to the scalar one: for inputs in
// the {X,0,1,Z} subset, every wide operation equals the scalar IEEE 1164
// operation applied lane by lane (the scalar tables are closed over the
// subset). The nine-valued levels U/W/L/H/- are not representable; callers
// project through System.Project (two- or four-valued) before packing.
package logic

import "fmt"

// Lanes is the number of independent simulation lanes in one Word.
const Lanes = 64

// Word is a packed 64-lane four-valued signal. The zero Word is all-Z
// (every lane floating), which is the identity of resolution.
type Word struct {
	L, H uint64
}

// CheckWide validates that sys is representable by the wide value plane:
// a Word lane holds {X,0,1,Z} only, so the nine-valued system cannot run
// wide. Every wide engine entry point applies this check.
func CheckWide(sys System) error {
	if sys != TwoValued && sys != FourValued {
		return fmt.Errorf("logic: %v system not supported by wide evaluation: nine-valued signals do not fit two bits per lane", sys)
	}
	return nil
}

// Splat returns the word with v (projected to {X,0,1,Z}) in every lane.
func Splat(v Value) Word {
	switch v.ToX01Z() {
	case Zero:
		return Word{L: ^uint64(0)}
	case One:
		return Word{H: ^uint64(0)}
	case Z:
		return Word{}
	default:
		return Word{L: ^uint64(0), H: ^uint64(0)}
	}
}

// Get extracts the value of one lane.
func (w Word) Get(lane int) Value {
	l := w.L >> uint(lane) & 1
	h := w.H >> uint(lane) & 1
	switch {
	case l == 1 && h == 0:
		return Zero
	case l == 0 && h == 1:
		return One
	case l == 1 && h == 1:
		return X
	default:
		return Z
	}
}

// Set returns w with lane set to v (projected to {X,0,1,Z}).
func (w Word) Set(lane int, v Value) Word {
	bit := uint64(1) << uint(lane)
	w.L &^= bit
	w.H &^= bit
	switch v.ToX01Z() {
	case Zero:
		w.L |= bit
	case One:
		w.H |= bit
	case Z:
	default:
		w.L |= bit
		w.H |= bit
	}
	return w
}

// Pack builds a word from up to 64 scalar values, one per lane starting at
// lane 0; missing lanes float at Z.
func Pack(vs []Value) Word {
	var w Word
	for i, v := range vs {
		if i >= Lanes {
			break
		}
		w = w.Set(i, v)
	}
	return w
}

// Unpack expands lanes [0, n) of w into a slice of scalar values.
func (w Word) Unpack(n int) []Value {
	if n > Lanes {
		n = Lanes
	}
	out := make([]Value, n)
	for i := range out {
		out[i] = w.Get(i)
	}
	return out
}

// PackBits builds a two-valued word from a plain bit mask: lane k is One
// where bit k of bits is set, Zero elsewhere.
func PackBits(bits uint64) Word {
	return Word{L: ^bits, H: bits}
}

// Bits projects w onto plain bit masks: ones has a bit set for each lane
// driven 1, known for each lane driven 0 or 1. For two-valued words known
// is all ones and the word round-trips through PackBits.
func (w Word) Bits() (ones, known uint64) {
	k := w.L ^ w.H // exactly one plane set: a driven 0/1 lane
	return w.H & k, k
}

// IsHigh returns the mask of lanes driven 1.
func (w Word) IsHigh() uint64 { return w.H &^ w.L }

// IsLow returns the mask of lanes driven 0.
func (w Word) IsLow() uint64 { return w.L &^ w.H }

// IsX returns the mask of unknown lanes.
func (w Word) IsX() uint64 { return w.L & w.H }

// IsZ returns the mask of floating lanes.
func (w Word) IsZ() uint64 { return ^(w.L | w.H) }

// Known returns the mask of lanes driven 0 or 1.
func (w Word) Known() uint64 { return w.L ^ w.H }

// String renders the word as 64 value characters, lane 63 first (so lane 0
// is the rightmost character, matching numeric bit order).
func (w Word) String() string {
	var buf [Lanes]byte
	for i := 0; i < Lanes; i++ {
		buf[Lanes-1-i] = valueRunes[w.Get(i)]
	}
	return string(buf[:])
}

// Select returns a word that takes its value from a where the mask bit is
// set and from b elsewhere — the lane-wise conditional the sequential wide
// gate models build on.
func Select(mask uint64, a, b Word) Word {
	return Word{
		L: a.L&mask | b.L&^mask,
		H: a.H&mask | b.H&^mask,
	}
}

// Equal64 reports per-lane equality of a and b as a mask.
func Equal64(a, b Word) uint64 {
	return ^((a.L ^ b.L) | (a.H ^ b.H))
}
