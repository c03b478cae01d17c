package eventq

import (
	"math/rand"
	"testing"
)

// lockstepQueues builds one queue per implementation, with the wheel sized
// small so pushes routinely land beyond the horizon and exercise the
// overflow heap plus its promotion path (refill).
func lockstepQueues() (names []string, qs []Queue[int]) {
	names = []string{"heap", "calendar", "wheel4"}
	qs = []Queue[int]{NewHeap[int](), NewCalendar[int](), NewWheel[int](4)}
	return
}

// driveLockstep feeds the identical operation sequence to every queue and
// requires identical observable behaviour: same Len, same PeekTime, same
// popped time at each pop, and the same payload multiset within each
// timestep (intra-timestep order is unspecified by the Queue contract, so
// payloads are compared per time, not per pop).
func driveLockstep(t *testing.T, ops []byte) {
	t.Helper()
	names, qs := lockstepQueues()
	floor := uint64(0)
	next := 1
	// popped[i][time][payload] counts what queue i returned per timestep.
	popped := make([]map[uint64]map[int]int, len(qs))
	for i := range popped {
		popped[i] = map[uint64]map[int]int{}
	}
	record := func(i int, tm uint64, v int) {
		m := popped[i][tm]
		if m == nil {
			m = map[int]int{}
			popped[i][tm] = m
		}
		m[v]++
	}
	popAll := func(opIdx int) {
		wantLen := qs[0].Len()
		var wantTime uint64
		for i, q := range qs {
			if q.Len() != wantLen {
				t.Fatalf("op %d: %s Len = %d, %s Len = %d", opIdx, names[0], wantLen, names[i], q.Len())
			}
			pk, pkOK := q.PeekTime()
			tm, v, ok := q.PopMin()
			if !ok {
				t.Fatalf("op %d: %s empty pop with Len %d", opIdx, names[i], wantLen)
			}
			if !pkOK || pk != tm {
				t.Fatalf("op %d: %s PeekTime %d,%v != popped %d", opIdx, names[i], pk, pkOK, tm)
			}
			if i == 0 {
				wantTime = tm
			} else if tm != wantTime {
				t.Fatalf("op %d: %s popped t=%d, %s popped t=%d", opIdx, names[0], wantTime, names[i], tm)
			}
			record(i, tm, v)
		}
		floor = wantTime
	}
	for opIdx, op := range ops {
		if op%17 == 16 {
			// ResetFloor and peek, then let the following pushes land up
			// to 14 ticks before the last pop: the rollback requeue
			// pattern, which rewinds the wheel's cursor below pending
			// overflow.
			wantPk, wantOK := qs[0].PeekTime()
			for i, q := range qs {
				q.ResetFloor()
				if pk, ok := q.PeekTime(); pk != wantPk || ok != wantOK {
					t.Fatalf("op %d: %s PeekTime %d,%v, %s PeekTime %d,%v", opIdx, names[0], wantPk, wantOK, names[i], pk, ok)
				}
			}
			floor -= min(floor, uint64(op/17))
			continue
		}
		if op%3 != 0 || qs[0].Len() == 0 {
			// Push. The op byte picks an offset from the floor; every 7th
			// push jumps far past the wheel horizon to force overflow, and
			// later pops force promotion back into the slots.
			delta := uint64(op % 11)
			if op%7 == 0 {
				delta = 50 + uint64(op)
			}
			tm := floor + delta
			for _, q := range qs {
				q.Push(tm, next)
			}
			next++
			continue
		}
		popAll(opIdx)
	}
	// Drain completely, still in lockstep.
	for qs[0].Len() > 0 {
		popAll(-1)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].Len() != 0 {
			t.Fatalf("%s not empty after lockstep drain", names[i])
		}
	}
	// Per-timestep payload multisets must match across implementations.
	for i := 1; i < len(qs); i++ {
		if len(popped[i]) != len(popped[0]) {
			t.Fatalf("%s saw %d distinct times, %s saw %d", names[0], len(popped[0]), names[i], len(popped[i]))
		}
		for tm, want := range popped[0] {
			got := popped[i][tm]
			if len(got) != len(want) {
				t.Fatalf("t=%d: %s payloads %v, %s payloads %v", tm, names[0], want, names[i], got)
			}
			for v, n := range want {
				if got[v] != n {
					t.Fatalf("t=%d payload %d: %s count %d, %s count %d", tm, v, names[0], n, names[i], got[v])
				}
			}
		}
	}
}

// TestLockstepEquivalence drives all three implementations with identical
// random operation sequences and demands identical pop-time sequences,
// covering the wheel's overflow demotion/promotion and the calendar's
// resizing on the same inputs.
func TestLockstepEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3000)
		rng.Read(ops)
		driveLockstep(t, ops)
	}
}

// FuzzLockstep lets the fuzzer search for operation sequences on which the
// implementations disagree. Seeds cover pure pushes, alternation, the
// far-jump (overflow) path, and ResetFloor followed by pushes before the
// cursor.
func FuzzLockstep(f *testing.F) {
	f.Add([]byte{1, 2, 4, 5, 7, 8})
	f.Add([]byte{0, 3, 6, 9, 12, 15})
	f.Add([]byte{7, 14, 21, 0, 3, 49, 3, 3})
	f.Add([]byte{11, 7, 3, 16, 25, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		driveLockstep(t, ops)
	})
}

// TestWheelWarmCycleZeroAllocs locks in the slot-reuse property: once the
// wheel has wrapped and its slot slices and overflow heap have grown, a
// steady-state pop/push cycle performs no allocation at all.
func TestWheelWarmCycleZeroAllocs(t *testing.T) {
	q := NewWheel[int](64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 512; i++ {
		q.Push(uint64(rng.Intn(61)), i)
	}
	// Warm across several full wraparounds, including overflow promotions.
	v := 0
	cycle := func() {
		tm, _, _ := q.PopMin()
		d := uint64(1 + v%7)
		if v%97 == 0 {
			d = 300 // beyond the horizon: overflow, promoted later
		}
		q.Push(tm+d, v)
		v++
	}
	for i := 0; i < 8192; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(2000, cycle); a != 0 {
		t.Fatalf("warm wheel pop/push cycle allocates %.1f per op, want 0", a)
	}
}

// TestHeapWarmCycleZeroAllocs is the same property for the baseline heap:
// with capacity grown, hold-model churn is allocation-free.
func TestHeapWarmCycleZeroAllocs(t *testing.T) {
	q := NewHeap[int]()
	for i := 0; i < 1024; i++ {
		q.Push(uint64(i%63), i)
	}
	v := 0
	cycle := func() {
		tm, _, _ := q.PopMin()
		q.Push(tm+uint64(1+v%9), v)
		v++
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(2000, cycle); a != 0 {
		t.Fatalf("warm heap pop/push cycle allocates %.1f per op, want 0", a)
	}
}
