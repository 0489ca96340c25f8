// Package simdettest is the simdet analysistest corpus. Its import
// path contains /testdata/, which opts it into the analyzer's
// internal-packages scope; it compiles against the real sim, network
// and stats types but is never linked into anything.
package simdettest

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"strings"
	"time"

	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
)

type Ctrl struct {
	net     *network.Network
	eng     *sim.Engine
	sample  *stats.Sample
	pending map[mem.Block]int
	done    map[mem.Block]func(uint64)
}

// --- Wall clock and global randomness. ---

func (c *Ctrl) clock() int64 {
	t := time.Now() // want `time\.Now in simulation code`
	return t.UnixNano()
}

func (c *Ctrl) suppressedClock() int64 {
	t := time.Now() //simlint:ignore simdet testdata: sanctioned wall-clock exception
	return t.UnixNano()
}

// storedClock smuggles the wall clock in behind a function value: the
// reference is flagged even though time.Now is never called here.
func (c *Ctrl) storedClock() func() time.Time {
	clock := time.Now // want `reference to time\.Now in simulation code`
	return clock
}

func (c *Ctrl) jitter() int {
	return rand.Intn(4) // want `global math/rand\.Intn is process-seeded`
}

func (c *Ctrl) jitterV2() int {
	return randv2.IntN(4) // want `global math/rand/v2\.IntN is process-seeded`
}

func (c *Ctrl) seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // constructor: clean
	return rng.Intn(4)                    // seeded method: clean
}

// --- Map iteration with effects. ---

func (c *Ctrl) retryAll() {
	for b := range c.pending {
		c.net.SendNew(network.Message{Block: b}) // want `sends messages via Network\.SendNew inside range over map`
	}
}

func (c *Ctrl) scheduleAll() {
	for b, n := range c.pending {
		_ = b
		c.eng.ScheduleCall(sim.NS(int64(n)), func(_, _ any) {}, c, nil) // want `schedules events via Engine\.ScheduleCall inside range over map`
	}
}

func (c *Ctrl) handleAll() {
	for b := range c.pending {
		m := network.Message{Block: b}
		c.net.HandleAfter(0, &m) // want `schedules events via Network\.HandleAfter inside range over map`
	}
}

// issueOne transitively sends: ranging callers are flagged through the
// package-local effect summary.
func (c *Ctrl) issueOne(b mem.Block) {
	c.net.SendNew(network.Message{Block: b, Dst: topo.NodeID(0)})
}

func (c *Ctrl) reissue() {
	for b := range c.pending {
		c.issueOne(b) // want `issueOne \(transitively\) schedules, sends`
	}
}

func (c *Ctrl) completeAll() {
	for b, fn := range c.done {
		_ = b
		fn(0) // want `calls a dynamic function value .* inside range over map`
	}
}

func (c *Ctrl) observeAll() {
	for _, n := range c.pending {
		c.sample.Add(float64(n)) // want `accumulates into stats\.Sample`
	}
}

func (c *Ctrl) render(w *strings.Builder) {
	for b := range c.pending {
		fmt.Fprintf(w, "%v\n", b) // want `writes ordered output via fmt\.Fprintf`
	}
}

func (c *Ctrl) collectUnsorted() []mem.Block {
	var out []mem.Block
	for b := range c.pending { // the append below is the diagnostic site
		out = append(out, b) // want `append to out inside range over map without sorting`
	}
	return out
}

func (c *Ctrl) meanLatency() float64 {
	var sum float64
	for _, n := range c.pending {
		sum += float64(n) // want `float accumulation into sum`
	}
	return sum / float64(len(c.pending))
}

// --- Clean idioms. ---

// collectSorted is the canonical fix: collect, then sort.
func (c *Ctrl) collectSorted() []mem.Block {
	var out []mem.Block
	for b := range c.pending {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// drain deletes from the ranged map: order-independent.
func (c *Ctrl) drain() {
	for b := range c.pending {
		delete(c.pending, b)
	}
}

// count accumulates integers: commutative, so order never shows.
func (c *Ctrl) count() int {
	total := 0
	for _, n := range c.pending {
		total += n
	}
	return total
}

// sliceSends ranges a slice, not a map: deterministic order.
func (c *Ctrl) sliceSends(blocks []mem.Block) {
	for _, b := range blocks {
		c.net.SendNew(network.Message{Block: b})
	}
}

// localAppend appends to a loop-local slice: no escape of map order.
func (c *Ctrl) localAppend() int {
	n := 0
	for b := range c.pending {
		var tmp []mem.Block
		tmp = append(tmp, b)
		n += len(tmp)
	}
	return n
}
