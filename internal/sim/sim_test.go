package sim

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// runFn is the tests' ScheduleCall target for a func() carried in ctx.
func runFn(fn, _ any) { fn.(func())() }

// after schedules fn on e after delay d.
func after(e *Engine, d Time, fn func()) { e.ScheduleCall(d, runFn, fn, nil) }

func TestScheduleOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	after(e, NS(30), func() { got = append(got, 3) })
	after(e, NS(10), func() { got = append(got, 1) })
	after(e, NS(20), func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != NS(30) {
		t.Errorf("final time = %v, want 30ns", e.Now())
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		after(e, NS(5), func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			after(e, NS(1), recurse)
		}
	}
	after(e, 0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != NS(99) {
		t.Errorf("time = %v, want 99ns", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	after(e, NS(10), func() {
		after(e, -NS(5), func() { fired = true })
	})
	e.Run(0)
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if e.Now() != NS(10) {
		t.Errorf("time = %v, want 10ns (clamped)", e.Now())
	}
}

func TestScheduleAtClampsToNow(t *testing.T) {
	e := NewEngine()
	at := Time(-1)
	after(e, NS(10), func() {
		e.ScheduleCallAt(NS(3), runFn, func() { at = e.Now() }, nil)
	})
	e.Run(0)
	if at != NS(10) {
		t.Errorf("past ScheduleCallAt fired at %v, want 10ns", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		after(e, NS(int64(i)), func() { n++ })
	}
	if !e.RunUntil(func() bool { return n == 5 }, 0) {
		t.Fatal("condition not reached")
	}
	if n != 5 {
		t.Errorf("n = %d, want 5", n)
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
}

func TestRunEventLimit(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { after(e, NS(1), tick) }
	after(e, 0, tick)
	e.Run(1000)
	if e.Executed != 1000 {
		t.Errorf("executed = %d, want 1000", e.Executed)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			after(e, Time(d)*Nanosecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Executed equals the number of scheduled events when all run.
func TestPropertyAllEventsFire(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		for i := 0; i < int(n); i++ {
			after(e, Time(rng.Intn(1000))*Nanosecond, func() {})
		}
		e.Run(0)
		return e.Executed == uint64(n) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond: "500ps",
		NS(3):            "3.000ns",
		Microsecond * 2:  "2.000us",
		Millisecond * 10: "10.000ms",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// TestScheduleCallInterleavesWithSchedule asserts the relative and
// absolute forms share one (time, sequence) order.
func TestScheduleCallInterleavesWithSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(_, arg any) { got = append(got, *arg.(*int)) }
	v := []int{0, 1, 2, 3}
	e.ScheduleCall(NS(5), record, nil, &v[0])
	e.ScheduleCallAt(NS(5), record, nil, &v[1])
	e.ScheduleCall(NS(5), record, nil, &v[2])
	e.ScheduleCallAt(NS(5), record, nil, &v[3])
	e.Run(0)
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("order = %v, want [0 1 2 3]", got)
	}
}

// TestScheduleCallPassesCtxArg asserts ctx and arg arrive untouched.
func TestScheduleCallPassesCtxArg(t *testing.T) {
	e := NewEngine()
	type box struct{ v int }
	ctx, arg := &box{1}, &box{2}
	var gotCtx, gotArg *box
	e.ScheduleCall(NS(1), func(c, a any) { gotCtx, gotArg = c.(*box), a.(*box) }, ctx, arg)
	e.Run(0)
	if gotCtx != ctx || gotArg != arg {
		t.Errorf("ctx/arg = %p/%p, want %p/%p", gotCtx, gotArg, ctx, arg)
	}
}

// stamp is one scheduled event's expected firing time and its
// scheduling sequence number.
type stamp struct {
	at  Time
	seq int
}

// orderRun drives an engine from a byte script and records every
// scheduled event's expected (time, sequence) alongside the order the
// events actually fired in. The script is read a byte at a time: the
// first picks how many root events to schedule, each fired event reads
// one byte for its number of children, and each scheduled event reads a
// (class, value) pair choosing its firing time and scheduling form. An
// exhausted script reads as zeros and schedules no more children, so
// every script terminates.
type orderRun struct {
	e      *Engine
	script []byte
	only   int // if >= 0, every event uses this time class
	stamps []stamp
	fired  []int
	firedT []Time
}

// orderMaxEvents bounds one script's events.
const orderMaxEvents = 1 << 15

var table3Delays = []Time{NS(2), NS(7), NS(2), NS(6), NS(20), NS(30), NS(80)}

func (r *orderRun) next() (byte, bool) {
	if len(r.script) == 0 {
		return 0, false
	}
	b := r.script[0]
	r.script = r.script[1:]
	return b, true
}

// target maps a class byte and a value byte to an absolute firing time.
// The classes cover zero and past delays, the protocols' 125 ps grid
// and Table 3 latencies, off-grid picoseconds (several distinct times
// per bucket), delays just under and just over the wheel's horizon, the
// exact first and last instants of the wheel's range, and ms-scale
// overflow.
func (r *orderRun) target(class, v byte) Time {
	now := r.e.Now()
	horizon := Time(wheelSize) << bucketShift
	edge := (now>>bucketShift + wheelSize) << bucketShift // first instant beyond the wheel
	if r.only >= 0 {
		class = byte(r.only)
	}
	switch class % 10 {
	case 0:
		return now
	case 1:
		return now - Time(v) - 1
	case 2:
		return now + Time(v)*125
	case 3:
		return now + table3Delays[int(v)%len(table3Delays)]
	case 4:
		return now + horizon - Time(v)
	case 5:
		return now + horizon + Time(v)
	case 6:
		return now + Time(v)
	case 7:
		return now + Time(v%4+1)*Millisecond + Time(v)
	case 8:
		return edge - 1 - Time(v%2)
	default:
		return edge + Time(v%2)
	}
}

func (r *orderRun) schedule() {
	class, _ := r.next()
	v, _ := r.next()
	now := r.e.Now()
	at := r.target(class, v)
	seq := len(r.stamps)
	r.stamps = append(r.stamps, stamp{at: max(at, now), seq: seq})
	call := func(ctx, _ any) { ctx.(*orderRun).fire(seq) }
	if class/10%2 == 0 {
		r.e.ScheduleCall(at-now, call, r, nil)
	} else {
		r.e.ScheduleCallAt(at, call, r, nil)
	}
}

func (r *orderRun) fire(seq int) {
	r.fired = append(r.fired, seq)
	r.firedT = append(r.firedT, r.e.Now())
	n, ok := r.next()
	if !ok || len(r.stamps) >= orderMaxEvents {
		return
	}
	for range n % 4 {
		r.schedule()
	}
}

// runOrder runs script to completion and checks the firing order
// against the sorted reference: every event fired exactly once, at its
// expected time, in (time, sequence) order.
func runOrder(t testing.TB, script []byte, only int) {
	t.Helper()
	r := &orderRun{e: NewEngine(), script: script, only: only}
	roots, _ := r.next()
	for range 1 + roots%64 {
		r.schedule()
	}
	r.e.Run(0)
	if len(r.fired) != len(r.stamps) || r.e.Pending() != 0 {
		t.Fatalf("fired %d of %d events, %d still pending", len(r.fired), len(r.stamps), r.e.Pending())
	}
	want := slices.Clone(r.stamps)
	slices.SortFunc(want, func(a, b stamp) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i, w := range want {
		if r.fired[i] != w.seq || r.firedT[i] != w.at {
			t.Fatalf("event %d: fired seq %d at %v, want seq %d at %v", i, r.fired[i], r.firedT[i], w.seq, w.at)
		}
	}
}

// TestEnginePopsExactOrder cross-checks the timing wheel against a
// sorted (time, sequence) reference over pseudo-random schedules with
// nested scheduling, mixing every delay class and then exercising each
// class alone.
func TestEnginePopsExactOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	script := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for seed := 0; seed < 20; seed++ {
		runOrder(t, script(8192), -1)
	}
	for class := 0; class < 10; class++ {
		runOrder(t, script(4096), class)
	}
	// A deep queue: 64 roots, every event with three children.
	deep := script(orderMaxEvents)
	deep[0] = 63
	for i := 1; i < len(deep); i++ {
		if i%3 == 0 {
			deep[i] = 3
		}
	}
	runOrder(t, deep, -1)
}

// FuzzEngineOrder runs arbitrary scripts through the same exact-order
// check as TestEnginePopsExactOrder.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 42, 7, 3, 44, 9, 2, 5, 200, 1, 37, 3})
	f.Add([]byte{63, 8, 0, 9, 1, 8, 1, 9, 0, 3, 4, 255, 5, 0, 3, 4, 0, 5, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		runOrder(t, script, -1)
	})
}

// TestScheduleCallDoesNotAllocate pins the closure-free fast path at
// zero allocations per scheduled+fired event once the queue is warm:
// at a steady 1 ns delay; one bucket width apart, so each of the 1001
// measured events lands in a bucket the run has never used (a queue
// that allocated per bucket would fail here); and through the overflow
// heap.
func TestScheduleCallDoesNotAllocate(t *testing.T) {
	nop := func(_, _ any) {}
	for _, c := range []struct {
		name string
		d    Time
	}{
		{"steady", NS(1)},
		{"fresh-buckets", 1 << bucketShift},
		{"overflow", Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			// Warm the slot slab and the overflow heap.
			for i := 0; i < 64; i++ {
				e.ScheduleCall(c.d, nop, e, nil)
			}
			e.Run(0)
			avg := testing.AllocsPerRun(1000, func() {
				e.ScheduleCall(c.d, nop, e, nil)
				e.Step()
			})
			if avg != 0 {
				t.Errorf("ScheduleCall+Step allocates %.2f per event, want 0", avg)
			}
		})
	}
}

// TestCancelStopsWithinBound pins the documented cancellation bound: a
// run whose context is cancelled mid-flight (here, by an event handler
// itself) fires at most CancelCheckEvery further events.
func TestCancelStopsWithinBound(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	var reschedule func()
	reschedule = func() { after(e, NS(1), reschedule) }
	reschedule()
	const cancelAt = 100
	var cancelled uint64
	after(e, NS(1), func() {
		// Fires as the second event at t=1ns; keep rescheduling until
		// the cancel point, then cancel from inside the run.
		var tick func()
		tick = func() {
			if e.Executed == cancelAt {
				cancelled = e.Executed
				cancel()
				return
			}
			after(e, NS(1), tick)
		}
		tick()
	})
	e.Run(0)
	if cancelled == 0 {
		t.Fatal("cancel point never reached")
	}
	if e.Err() == nil {
		t.Fatalf("engine not interrupted (executed %d events)", e.Executed)
	}
	if got := e.Executed - cancelled; got > CancelCheckEvery {
		t.Errorf("engine ran %d events past cancellation, documented bound is %d", got, CancelCheckEvery)
	}
	if err := e.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v after interruption, want context.Canceled", err)
	}
}

// TestRunUntilCancelDistinguishable asserts RunUntil reports an
// unsatisfied condition on cancellation and that Err distinguishes it
// from an exhausted queue or event limit.
func TestRunUntilCancelDistinguishable(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run even starts
	e.SetContext(ctx)
	var chain func()
	chain = func() { after(e, NS(1), chain) }
	chain()
	ok := e.RunUntil(func() bool { return false }, 0)
	if ok {
		t.Fatal("RunUntil reported cond satisfied on a cancelled run")
	}
	if e.Err() == nil {
		t.Fatal("Err() = nil after pre-cancelled run")
	}
	if e.Executed > CancelCheckEvery {
		t.Errorf("pre-cancelled run fired %d events, bound is %d", e.Executed, CancelCheckEvery)
	}
	// Limit exhaustion must NOT read as interruption.
	e2 := NewEngine()
	e2.SetContext(context.Background())
	var chain2 func()
	chain2 = func() { after(e2, NS(1), chain2) }
	chain2()
	if e2.RunUntil(func() bool { return false }, 10) {
		t.Fatal("RunUntil satisfied an always-false cond")
	}
	if e2.Err() != nil {
		t.Error("limit exhaustion reported as interruption")
	}
}

// TestSetContextBackgroundIsFree asserts a never-cancellable context is
// normalized away: the engine behaves exactly as if no context were
// installed (the zero-overhead, determinism-preserving path).
func TestSetContextBackgroundIsFree(t *testing.T) {
	run := func(ctx context.Context) []Time {
		e := NewEngine()
		e.SetContext(ctx)
		var fired []Time
		for i := 0; i < 3000; i++ {
			d := Time(i%7) * Nanosecond
			after(e, d, func() { fired = append(fired, e.Now()) })
		}
		e.Run(0)
		return fired
	}
	plain := run(nil)
	bg := run(context.Background())
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	withLive := run(live)
	if len(plain) != len(bg) || len(plain) != len(withLive) {
		t.Fatalf("event counts diverged: nil=%d background=%d live=%d", len(plain), len(bg), len(withLive))
	}
	for i := range plain {
		if plain[i] != bg[i] || plain[i] != withLive[i] {
			t.Fatalf("event %d fired at %v/%v/%v across context variants", i, plain[i], bg[i], withLive[i])
		}
	}
}

// TestRunYields pins the yield at each poll: with one P, a goroutine
// made runnable before a 4096-event Run gets the processor at the poll
// after event 1024, or at the latest after event 2048, so an event
// handler sees it has run before event 2049. Without the yield it waits
// for the 10 ms preemption tick, long after this run has ended.
func TestRunYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := NewEngine()
	var ran atomic.Bool
	var seenAt uint64
	check := func() {
		if seenAt == 0 && ran.Load() {
			seenAt = e.Executed
		}
	}
	for i := range 4096 {
		after(e, Time(i), check)
	}
	go ran.Store(true)
	e.Run(0)
	if seenAt == 0 || seenAt > 2*CancelCheckEvery+1 {
		t.Fatalf("goroutine first seen at event %d of %d, want by event %d", seenAt, e.Executed, 2*CancelCheckEvery+1)
	}
}

// TestNSClamps checks that a nanosecond count past picosecond Time
// clamps to the largest count that fits instead of wrapping into range.
func TestNSClamps(t *testing.T) {
	top := Time(maxNS) * Nanosecond
	for _, tc := range []struct {
		ns   int64
		want Time
	}{
		{0, 0},
		{3, 3000},
		{-5, -5000},
		{maxNS, top},
		{maxNS + 1, top},
		{18446744073709552, top},   // wraps to 384 ps unclamped
		{-18446744073709551, -top}, // wraps to 616 ps unclamped
		{math.MaxInt64, top},
		{-maxNS - 1, -top},
		{math.MinInt64, -top},
	} {
		if got := NS(tc.ns); got != tc.want {
			t.Errorf("NS(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}
