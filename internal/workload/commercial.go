package workload

import (
	"math/rand"

	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/sim"
)

// CommercialParams shapes a synthetic surrogate for one of the paper's
// commercial macro-benchmarks. Each processor executes transactions; a
// transaction mixes instruction fetches over a shared read-only code
// footprint, private-data accesses, read-mostly shared reads, migratory
// read-modify-writes, and lock-protected critical sections over shared
// records. The knobs control the sharing-miss profile the coherence
// protocol sees, which is what differentiates DirectoryCMP (indirection
// per sharing miss) from TokenCMP (direct broadcast).
type CommercialParams struct {
	Name string

	TxnsPerProc int

	IFetchPerTxn int
	InstrBlocks  int

	PrivatePerTxn        int
	PrivateWriteFrac     float64
	PrivateBlocksPerProc int

	SharedReadPerTxn int
	SharedBlocks     int

	// ScanPerTxn accesses walk a large per-processor region that exceeds
	// the L2, generating capacity misses and dirty writebacks (commercial
	// working sets dwarf the 8 MB L2).
	ScanPerTxn    int
	ScanBlocks    int
	ScanWriteFrac float64

	MigratoryPerTxn int // read-modify-write a shared record (unlocked)
	MigratoryBlocks int

	LockedSectionsPerTxn int
	Locks                int
	RecordsPerCS         int
	RecordBlocks         int

	ThinkPerOp sim.Time
}

// OLTP models the DB2/TPC-C workload: dominated by migratory
// read-modify-write sharing and contended locks — the profile for which
// the paper reports TokenCMP's largest gain (50%).
func OLTP() CommercialParams {
	return CommercialParams{
		Name:                 "OLTP",
		TxnsPerProc:          40,
		IFetchPerTxn:         10,
		InstrBlocks:          3072,
		PrivatePerTxn:        14,
		PrivateWriteFrac:     0.3,
		PrivateBlocksPerProc: 3072,
		SharedReadPerTxn:     3,
		SharedBlocks:         512,
		ScanPerTxn:           4,
		ScanBlocks:           2048,
		ScanWriteFrac:        0.4,
		MigratoryPerTxn:      6,
		MigratoryBlocks:      96,
		LockedSectionsPerTxn: 2,
		Locks:                24,
		RecordsPerCS:         2,
		RecordBlocks:         128,
		ThinkPerOp:           sim.NS(6),
	}
}

// Apache models static web serving: more read-only sharing, fewer
// migratory writes (paper gain: 29%).
func Apache() CommercialParams {
	return CommercialParams{
		Name:                 "Apache",
		TxnsPerProc:          40,
		IFetchPerTxn:         14,
		InstrBlocks:          4096,
		PrivatePerTxn:        22,
		PrivateWriteFrac:     0.25,
		PrivateBlocksPerProc: 3584,
		SharedReadPerTxn:     8,
		SharedBlocks:         768,
		ScanPerTxn:           5,
		ScanBlocks:           2048,
		ScanWriteFrac:        0.4,
		MigratoryPerTxn:      2,
		MigratoryBlocks:      64,
		LockedSectionsPerTxn: 1,
		Locks:                48,
		RecordsPerCS:         1,
		RecordBlocks:         96,
		ThinkPerOp:           sim.NS(6),
	}
}

// SPECjbb models the Java middleware workload: mostly warehouse-private
// data with modest sharing (paper gain: 10%).
func SPECjbb() CommercialParams {
	return CommercialParams{
		Name:                 "SPECjbb",
		TxnsPerProc:          40,
		IFetchPerTxn:         12,
		InstrBlocks:          4096,
		PrivatePerTxn:        64,
		PrivateWriteFrac:     0.4,
		PrivateBlocksPerProc: 4096,
		SharedReadPerTxn:     1,
		SharedBlocks:         256,
		ScanPerTxn:           6,
		ScanBlocks:           2048,
		ScanWriteFrac:        0.4,
		MigratoryPerTxn:      1,
		MigratoryBlocks:      48,
		LockedSectionsPerTxn: 1,
		Locks:                96,
		RecordsPerCS:         1,
		RecordBlocks:         64,
		ThinkPerOp:           sim.NS(6),
	}
}

// Commercial address-space layout.
const (
	instrBase   mem.Addr = 0x04_0000_0000
	privateBase mem.Addr = 0x08_0000_0000
	sharedBase  mem.Addr = 0x0C_0000_0000
	migBase     mem.Addr = 0x10_0000_0000
	lockBase    mem.Addr = 0x14_0000_0000
	recordBase  mem.Addr = 0x18_0000_0000
	scanBase    mem.Addr = 0x1C_0000_0000
)

func blockAddr(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i)*mem.BlockSize }

// CommercialProgram is one processor's surrogate thread. It compiles each
// transaction into a queue of primitive steps; lock acquisition expands
// into a test-and-test-and-set loop at run time.
type CommercialProgram struct {
	p    CommercialParams
	proc int
	rng  *rand.Rand
	mon  *LockMonitor

	// queue holds the current transaction's steps and next indexes the
	// first one not yet issued; genTxn refills the same backing array.
	txns  int
	queue []step
	next  int

	// acquiring is set while acq spins for a lock.
	acquiring bool
	acq       ttas

	// migratory RMW sub-machine: remembered loaded value
	pendingStore mem.Addr
	seq          uint64
	scanPos      int
}

type stepKind int

const (
	stThink stepKind = iota
	stLoad
	stStore
	stIFetch
	stRMW     // load then store to Addr
	stAcquire // TTS acquire of Addr
	stRelease
)

type step struct {
	kind stepKind
	addr mem.Addr
	dur  sim.Time
}

// newCommercialProgram builds processor proc's thread.
func newCommercialProgram(p CommercialParams, proc int, seed int64, mon *LockMonitor) *CommercialProgram {
	return &CommercialProgram{
		p:    p,
		proc: proc,
		rng:  rand.New(rand.NewSource(seed*3_000_017 + int64(proc)*131 + 13)),
		mon:  mon,
	}
}

// genTxn compiles one transaction into steps.
func (c *CommercialProgram) genTxn() {
	p := c.p
	add := func(s step) { c.queue = append(c.queue, s) }
	think := func() { add(step{kind: stThink, dur: p.ThinkPerOp}) }

	for i := 0; i < p.IFetchPerTxn; i++ {
		add(step{kind: stIFetch, addr: blockAddr(instrBase, c.rng.Intn(p.InstrBlocks))})
	}
	for i := 0; i < p.PrivatePerTxn; i++ {
		a := blockAddr(privateBase, c.proc*p.PrivateBlocksPerProc+c.rng.Intn(p.PrivateBlocksPerProc))
		if c.rng.Float64() < p.PrivateWriteFrac {
			add(step{kind: stStore, addr: a})
		} else {
			add(step{kind: stLoad, addr: a})
		}
		think()
	}
	for i := 0; i < p.SharedReadPerTxn; i++ {
		add(step{kind: stLoad, addr: blockAddr(sharedBase, c.rng.Intn(p.SharedBlocks))})
		think()
	}
	for i := 0; i < p.ScanPerTxn; i++ {
		c.scanPos = (c.scanPos + 1 + c.rng.Intn(64)) % p.ScanBlocks
		a := blockAddr(scanBase, c.proc*p.ScanBlocks+c.scanPos)
		if c.rng.Float64() < p.ScanWriteFrac {
			add(step{kind: stStore, addr: a})
		} else {
			add(step{kind: stLoad, addr: a})
		}
	}
	for i := 0; i < p.MigratoryPerTxn; i++ {
		add(step{kind: stRMW, addr: blockAddr(migBase, c.rng.Intn(p.MigratoryBlocks))})
		think()
	}
	for i := 0; i < p.LockedSectionsPerTxn; i++ {
		lock := blockAddr(lockBase, c.rng.Intn(p.Locks))
		add(step{kind: stAcquire, addr: lock})
		for r := 0; r < p.RecordsPerCS; r++ {
			add(step{kind: stRMW, addr: blockAddr(recordBase, c.rng.Intn(p.RecordBlocks))})
		}
		add(step{kind: stRelease, addr: lock})
		think()
	}
}

// Next implements cpu.Program.
func (c *CommercialProgram) Next(now sim.Time, last uint64) cpu.Action {
	if c.acquiring {
		act, acquired := c.acq.next(last)
		if !acquired {
			return act
		}
		c.mon.Enter(c.acq.lock, c.proc)
		c.acquiring = false
	}
	// Pending second half of an RMW?
	if c.pendingStore != 0 {
		a := c.pendingStore
		c.pendingStore = 0
		c.seq++
		return cpu.StoreOf(a, c.seq<<16|uint64(c.proc))
	}

	for {
		if c.next == len(c.queue) {
			if c.txns >= c.p.TxnsPerProc {
				return cpu.Done()
			}
			c.txns++
			c.queue, c.next = c.queue[:0], 0
			c.genTxn()
		}
		s := c.queue[c.next]
		c.next++
		switch s.kind {
		case stThink:
			return cpu.Think(s.dur)
		case stLoad:
			return cpu.LoadOf(s.addr)
		case stStore:
			c.seq++
			return cpu.StoreOf(s.addr, c.seq<<16|uint64(c.proc))
		case stIFetch:
			return cpu.Fetch(s.addr)
		case stRMW:
			c.pendingStore = s.addr
			return cpu.LoadOf(s.addr)
		case stAcquire:
			c.acquiring = true
			return c.acq.start(s.addr)
		case stRelease:
			c.mon.Exit(s.addr, c.proc)
			return cpu.StoreOf(s.addr, 0)
		}
	}
}

// CommercialPrograms builds one thread per processor.
func CommercialPrograms(p CommercialParams, procs int, seed int64) ([]cpu.Program, *LockMonitor) {
	mon := NewLockMonitor()
	out := make([]cpu.Program, procs)
	for i := range out {
		out[i] = newCommercialProgram(p, i, seed, mon)
	}
	return out, mon
}
