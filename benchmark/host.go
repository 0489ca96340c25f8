// Host measurements: CPU time and its attribution to units, the
// calibration that converts it to the reference machine's speed, and
// peak resident memory.

package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processCPU returns the CPU time the whole process has used, every
// thread and the garbage collector included. The end-to-end metrics are
// CPU time rather than wall time because on a shared virtual machine the
// hypervisor steals a varying share of each virtual CPU, which stretches
// wall time by tens of percent from one minute to the next but is not
// charged to the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMeter attributes the process's CPU time to the units running at
// once: between any two unit starts or ends, the CPU the process used is
// split evenly over the units then in flight. Two CPU-bound units running
// side by side each get their own thread's time plus half of the
// collector's; a unit running alone gets all of it.
type cpuMeter struct {
	mu     sync.Mutex
	last   time.Duration
	active []*cpuShare
}

// cpuShare is the CPU time attributed to one unit so far.
type cpuShare struct{ d time.Duration }

// advance splits the CPU used since the last event over the active units.
func (m *cpuMeter) advance() {
	now := processCPU()
	if n := len(m.active); n > 0 {
		d := (now - m.last) / time.Duration(n)
		for _, s := range m.active {
			s.d += d
		}
	}
	m.last = now
}

// begin starts attributing CPU time to a new unit.
func (m *cpuMeter) begin() *cpuShare {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance()
	s := &cpuShare{}
	m.active = append(m.active, s)
	return s
}

// end stops attributing to s and returns its total.
func (m *cpuMeter) end(s *cpuShare) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance()
	m.active = slices.DeleteFunc(m.active, func(x *cpuShare) bool { return x == s })
	return s.d
}

// A kernel is one fixed calibration loop; it runs on both CPUs at once
// and returns a value that keeps the compiler from dropping the work.
type kernel struct {
	run func(seed uint32) uint64
	ref time.Duration // process CPU time it takes on the reference machine
}

// kernels are the calibration loops. Neighbours on a shared host slow
// the simulator through the core (a sibling hyperthread), the caches and
// memory; each kernel leans on one of these, and their mean tracks the
// simulator's speed better than any one of them does. The refs are what
// each takes on the reference machine, a 2-vCPU Intel Xeon virtual
// machine at 2.0 GHz. They only fix the scale the reported times are in;
// they must never change, or old and new results stop being comparable.
var kernels = []kernel{
	{run: kernelMemory, ref: 100 * time.Millisecond},
	{run: kernelQueue, ref: 105 * time.Millisecond},
	{run: kernelALU, ref: 100 * time.Millisecond},
}

// kernelMemory does random read-modify-writes over a 4 MiB buffer.
func kernelMemory(seed uint32) uint64 {
	buf := make([]uint32, 1<<20)
	x, s := seed, uint32(0)
	for range 1 << 24 {
		x = x*1664525 + 1013904223 // LCG step: a scattered index
		i := x >> 12
		s += buf[i]
		buf[i] = s ^ x
	}
	return uint64(s)
}

// kernelQueue is a small discrete-event loop: a 4-ary heap of events
// 4096 deep, each of which looks up and updates a 4-way set of a 1 MiB
// tag and LRU array and schedules a successor at one of the Table 3
// latencies.
func kernelQueue(seed uint32) uint64 {
	type event struct{ at, seq uint64 }
	const lines = 1 << 16
	tags, lru := make([]uint64, lines), make([]uint64, lines)
	q := make([]event, 0, 4096)
	less := func(i, j int) bool { return q[i].at < q[j].at || q[i].at == q[j].at && q[i].seq < q[j].seq }
	push := func(e event) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 4
			if !less(i, p) {
				break
			}
			q[i], q[p] = q[p], q[i]
			i = p
		}
	}
	pop := func() event {
		top := q[0]
		q[0] = q[len(q)-1]
		q = q[:len(q)-1]
		for i := 0; ; {
			m := 4*i + 1
			if m >= len(q) {
				break
			}
			for c := m + 1; c < 4*i+5 && c < len(q); c++ {
				if less(c, m) {
					m = c
				}
			}
			if !less(m, i) {
				break
			}
			q[i], q[m] = q[m], q[i]
			i = m
		}
		return top
	}
	delays := [...]uint64{2, 7, 2, 6, 20, 30, 80}
	x, seq, hits := seed, uint64(0), uint64(0)
	for range cap(q) {
		x = x*1664525 + 1013904223
		seq++
		push(event{at: uint64(x % 100), seq: seq})
	}
	for range 1 << 18 {
		e := pop()
		x = x*1664525 + 1013904223
		set, tag := (x>>8)%lines&^3, e.seq&1023
		victim := set
		for w := set; w < set+4; w++ {
			if tags[w] == tag {
				hits++
				victim = w
				break
			}
			if lru[w] < lru[victim] {
				victim = w
			}
		}
		tags[victim], lru[victim] = tag, e.at
		seq++
		push(event{at: e.at + delays[x%7], seq: seq})
	}
	return hits + seq
}

// kernelALU is integer arithmetic and branches over a 4 KiB table.
func kernelALU(seed uint32) uint64 {
	var tbl [512]uint64
	x := uint64(seed)
	for i := range 1 << 23 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 511
		tbl[j] += x
		if tbl[(j+1)&511]&1 == 0 {
			x += uint64(i)
		}
	}
	return x + tbl[3]
}

// calibrate runs every kernel on both CPUs and returns how fast the
// machine is running at the moment relative to the reference machine:
// the geometric mean over kernels of ref over the process CPU time the
// kernel took.
func calibrate() float64 {
	logSum := 0.0
	for _, k := range kernels {
		start := processCPU()
		var out [jobs]uint64
		var wg sync.WaitGroup
		for g := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[g] = k.run(uint32(g + 1))
			}()
		}
		wg.Wait()
		for _, v := range out {
			sink += v
		}
		logSum += math.Log(k.ref.Seconds() / (processCPU() - start).Seconds())
	}
	return math.Exp(logSum / float64(len(kernels)))
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// resident-set high-water mark, so peakRSSMB covers only what follows.
// The peak of one pass depends on where the collector happens to run, so
// runs report the median over their passes.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "warning: cannot reset the RSS high-water mark:", err)
	}
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}
