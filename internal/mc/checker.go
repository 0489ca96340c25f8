// Package mc is an explicit-state model checker reproducing the paper's
// Section 5 verification study. It exhaustively enumerates the reachable
// states of small protocol configurations (the paper's TLA+/TLC role),
// checking:
//
//   - safety invariants in every reachable state (token conservation,
//     the coherence invariant, and a serial view of memory);
//   - deadlock freedom (every non-quiescent state has a successor);
//   - starvation freedom as the CTL property AG(pending → EF ¬pending),
//     decided by backward reachability over the explored state graph —
//     under fair scheduling this implies every persistent request is
//     eventually satisfied. A run cut short by the state cap or a
//     cancelled context is marked Partial and leaves this undecided.
//
// Because the token models drive the performance-policy interface
// nondeterministically (any holder may spill any tokens toward any cache
// at any time), verifying them covers all possible performance policies,
// which is the paper's central verification argument.
//
// States are fixed-width packed binary keys (built by the models in
// internal/mc/models), carried as strings at the interface boundary so
// the state table can intern them. The checker's throughput directly
// bounds how big a configuration can be verified, so the hot path is
// allocation-free: workers expand frontiers into reusable SuccBufs,
// keys are hashed and deduplicated as raw byte views, and only the
// first discovery of a state copies the key into a shared string chunk.
//
// Models whose caches are fully interchangeable additionally declare
// their layout's symmetry (see symmetry.go); with Options.Symmetry the
// checker then explores one canonical representative per cache-
// permutation orbit, shrinking the state space by up to Caches!.
package mc

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"time"

	"tokencmp/internal/runner"
)

// Model is an encoded-state transition system. Implementations must be
// safe for concurrent calls: the checker expands each BFS level's
// frontier across a worker pool. State keys are packed binary payloads
// (fixed width per model configuration) carried as strings.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Initial returns the initial states (encoded).
	Initial() []string
	// Successors appends the packed keys of s's successors to sb.
	Successors(s string, sb *SuccBuf)
	// Check validates safety invariants; a non-nil error is a violation.
	Check(s string) error
	// Quiescent reports whether a state is allowed to have no successors.
	Quiescent(s string) bool
	// Pending reports whether the state has an outstanding request that
	// must eventually be satisfied; a state that is not pending
	// satisfies every request.
	Pending(s string) bool
}

// Symmetric is implemented by models whose packed layout declares its
// cache symmetry (see Symmetry in symmetry.go). Symmetry may return
// nil when the model's rules are not permutation-invariant — such a
// model is always explored unreduced. The predicate methods (Check,
// Pending, Quiescent) of a Symmetric model must themselves
// be permutation-invariant, since with reduction on they are evaluated
// on orbit representatives only.
type Symmetric interface {
	Symmetry() *Symmetry
}

// Options configures a checking run.
type Options struct {
	// Limit is the exact state-count cap (0 = 5,000,000). With
	// symmetry reduction it caps canonical representatives.
	Limit int
	// Jobs is the worker count (<= 0 selects runner.DefaultJobs()).
	Jobs int
	// Symmetry canonicalizes every state under cache permutation
	// before deduplication, exploring one representative per orbit.
	// It takes effect only for models that implement Symmetric with a
	// non-nil descriptor and Caches <= MaxSymmetryCaches; Result.
	// Symmetry reports whether the reduction was actually applied.
	Symmetry bool
	// Context aborts the exploration between BFS levels: once it is
	// cancelled, the current level finishes merging and the run stops
	// with Result.Partial set. Nil, or a never-cancellable context,
	// checks to completion.
	Context context.Context
}

// Result summarizes one model-checking run. With symmetry reduction
// applied (Symmetry true), States, Transitions, and Diameter describe
// the quotient graph — canonical representatives, edges between them,
// and BFS depth over orbits — while FullStates is the orbit-expanded
// state count, exactly equal to the States an unreduced run reports.
type Result struct {
	Model       string
	States      int
	Transitions int
	Diameter    int
	Elapsed     time.Duration

	Symmetry   bool // whether cache-permutation reduction was applied
	FullStates int  // orbit-expanded state count (== States unreduced)

	// Partial marks a run that explored only a prefix of the state
	// space: the state cap dropped a discovered state, or
	// Options.Context was cancelled. Counts describe the consistent
	// subgraph explored so far, and safety violations and deadlocks
	// found in it are real, but the starvation property is undecided:
	// the edges into the unexplored states are missing, so states that
	// reach satisfaction only through them would read as starving.
	Partial bool

	Violation  error  // first safety violation, if any
	BadState   string // the violating state
	Deadlock   string // first deadlocked state, if any
	Starvation string // first pending state that cannot reach a non-pending one
}

// OK reports whether every property held.
func (r *Result) OK() bool {
	return r.Violation == nil && r.Deadlock == "" && r.Starvation == ""
}

// StatesPerSec reports exploration throughput (explored states, i.e.
// canonical representatives when symmetry reduction is on).
func (r *Result) StatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.States) / r.Elapsed.Seconds()
}

// ReductionX reports the orbit-reduction factor FullStates/States
// (1 when no reduction was applied).
func (r *Result) ReductionX() float64 {
	if r.States == 0 {
		return 1
	}
	return float64(r.FullStates) / float64(r.States)
}

func (r *Result) String() string {
	status := "PASS"
	detail := ""
	switch {
	case r.Violation != nil:
		status = "FAIL"
		detail = fmt.Sprintf(" violation: %v", r.Violation)
	case r.Deadlock != "":
		status = "FAIL"
		detail = " deadlock"
	case r.Starvation != "":
		status = "FAIL"
		detail = " starvation"
	case r.Partial:
		status = "PARTIAL"
		detail = " prefix only, starvation undecided"
	}
	states := fmt.Sprintf("states=%d", r.States)
	if r.Symmetry {
		states = fmt.Sprintf("states=%d full=%d (%.1fx)", r.States, r.FullStates, r.ReductionX())
	}
	return fmt.Sprintf("%-28s %s %s transitions=%d diameter=%d elapsed=%v%s",
		r.Model, status, states, r.Transitions, r.Diameter, r.Elapsed, detail)
}

// expandChunk is the number of consecutive frontier states one worker
// task expands. The split depends only on the frontier, never on the
// worker count, and a chunk's buffers amortize their growth over all
// its states.
const expandChunk = 32

// expansion is one frontier chunk's parallel-computed outputs. The
// successor keys of all its states live, in order, in the worker-filled
// SuccBuf, and ends[k] is the key count after its k-th state. Their
// hashes are computed in the worker, so the serial merge never hashes a
// key; mult folds duplicate successors of one state into their first
// occurrence (mult[j] < 0 marks a duplicate, otherwise it is the
// occurrence count folded into j). The buffers are reused across BFS
// levels: allocations stop once the chunks have seen the widest
// expansion.
type expansion struct {
	sb     SuccBuf
	ends   []int32
	hashes []uint64
	orbits []int32 // orbit size per successor (symmetry runs only)
	mult   []int32
	err    error // first safety violation in the chunk, if any
	errAt  int   // chunk offset of the violating state
	deadAt int   // chunk offset of the first deadlocked state, or -1
}

// stateTable is an open-addressed hash set over the discovered-state
// slice, probed with externally computed hashes. It hashes each
// discovered state exactly once (in a worker, off the serial path),
// probes with raw byte views (the string(b) == s comparison below does
// not allocate), and growth rehashes from the stored hash words without
// touching the keys. A slot keeps its hash beside its index, so a probe
// reads one cache line.
type stateTable struct {
	slots []tableSlot
	used  int
}

type tableSlot struct {
	hash uint64
	idx  int32 // state index + 1; 0 marks an empty slot
}

func newStateTable() *stateTable {
	return &stateTable{slots: make([]tableSlot, 1<<10)}
}

// lookup returns the index stored for (h, b), or -1, plus the slot
// where b belongs.
func (t *stateTable) lookup(h uint64, b []byte, states []string) (int32, int) {
	mask := uint64(len(t.slots) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		e := t.slots[slot]
		if e.idx == 0 {
			return -1, int(slot)
		}
		if e.hash == h && states[e.idx-1] == string(b) {
			return e.idx - 1, int(slot)
		}
	}
}

// insert records index at the slot lookup reported, growing at 3/4
// load.
func (t *stateTable) insert(slot int, h uint64, index int32) {
	t.slots[slot] = tableSlot{hash: h, idx: index + 1}
	t.used++
	if t.used*4 >= len(t.slots)*3 {
		t.grow()
	}
}

func (t *stateTable) grow() {
	old := t.slots
	t.slots = make([]tableSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e.idx == 0 {
			continue
		}
		slot := e.hash & mask
		for t.slots[slot].idx != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = e
	}
}

// internChunk is the size of the string chunks discovered keys are
// copied into: one allocation per chunk rather than one per state.
const internChunk = 64 << 10

// CheckOpt explores m under opt.
//
// The exploration is level-synchronous BFS: all states at the current
// depth are expanded concurrently (Successors and the safety Check are
// the expensive calls), then their successors are merged serially in
// frontier order. Discovery order, state indices, and every Result
// field except Elapsed are therefore identical for any jobs value.
//
// With opt.Symmetry and a model that declares its cache symmetry,
// every emitted successor key is canonicalized in place (in the
// worker, before hashing) to its orbit's canonical representative
// (see Canonicalize), so the BFS explores the quotient graph: one
// representative per orbit. The orbit sizes are summed into
// FullStates, which exactly reproduces the unreduced state count.
// Canonicalization is sound here because a Symmetric model's
// transition relation and predicates commute with permutation: the
// successors of a representative cover its whole orbit's successors up
// to renaming, safety violations and deadlocks are permutation-
// invariant, and backward reachability over the quotient graph decides
// AG(pending → EF ¬pending) exactly as over the full graph.
//
// The state cap is exact: at most limit states are recorded, and edges
// to states dropped by the cap are not counted as transitions, so the
// reported (States, Transitions) pair always describes a consistent
// explored subgraph. A run that drops a state is Partial.
func CheckOpt(m Model, opt Options) *Result {
	limit := opt.Limit
	if limit <= 0 {
		limit = 5_000_000
	}
	pool := runner.New(opt.Jobs)
	start := time.Now() //simlint:ignore simdet wall-clock states/sec throughput: measures the checker, not the model
	res := &Result{Model: m.Name()}
	ctx := opt.Context
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // never cancellable: skip the per-level poll
	}

	var sym *Symmetry
	if opt.Symmetry {
		if sm, ok := m.(Symmetric); ok {
			sym = sm.Symmetry()
		}
	}
	init := m.Initial()
	var canonPool *sync.Pool
	if sym != nil && len(init) > 0 {
		width := len(init[0])
		if c := sym.NewCanonicalizer(width); c != nil {
			res.Symmetry = true
			canonPool = &sync.Pool{New: func() any { return sym.NewCanonicalizer(width) }}
			canonPool.Put(c)
		} else {
			sym = nil
		}
	} else {
		sym = nil
	}

	seed := maphash.MakeSeed()
	table := newStateTable()
	var states []string
	// Unique successor edges, recorded as a forward CSR adjacency: BFS
	// expands states in index order, so state i's edges are
	// edgeTo[edgeEnd[i-1]:edgeEnd[i]] and no source word is stored.
	var edgeTo, edgeEnd []int32
	// A key's interned string is a substring of the current chunk, which
	// never rewrites bytes it has handed out; a key that does not fit
	// starts a new chunk.
	var chunk *strings.Builder

	// push records a newly discovered state (with its precomputed hash)
	// unless the cap has been reached, returning its index (-1 if
	// dropped, which makes the run Partial) and whether it was new.
	// The key bytes are interned (copied into the current string
	// chunk) only on first discovery.
	push := func(b []byte, h uint64, depth int32) (int, bool) {
		if idx, slot := table.lookup(h, b, states); idx >= 0 {
			return int(idx), false
		} else if len(states) >= limit {
			res.Partial = true
			return -1, false
		} else {
			table.insert(slot, h, int32(len(states)))
		}
		idx := len(states)
		if chunk == nil || chunk.Cap()-chunk.Len() < len(b) {
			chunk = new(strings.Builder)
			chunk.Grow(max(internChunk, len(b)))
		}
		start := chunk.Len()
		chunk.Write(b)
		states = append(states, chunk.String()[start:])
		if int(depth) > res.Diameter {
			res.Diameter = int(depth)
		}
		return idx, true
	}
	for _, s := range init {
		b := []byte(s)
		orbit := 1
		if sym != nil {
			c := canonPool.Get().(*Canonicalizer)
			orbit = c.Canonicalize(b)
			canonPool.Put(c)
		}
		if _, isNew := push(b, maphash.Bytes(seed, b), 0); isNew {
			res.FullStates += orbit
		}
	}

	// BFS appends discoveries to states in level order, so the slice
	// doubles as the queue: states[lo:hi] is the current level, walked
	// with a cursor instead of a frontier[1:] pop that would pin the
	// whole backing array for the life of the run. The states it
	// discovers lie at depth.
	var exps []expansion // reused across levels
	for lo, depth := 0, int32(1); lo < len(states); depth++ {
		hi := len(states)
		batch := states[lo:hi]
		chunks := (len(batch) + expandChunk - 1) / expandChunk
		if cap(exps) < chunks {
			next := make([]expansion, chunks)
			copy(next, exps[:cap(exps)]) // keep every parked worker buffer, truncated tail included
			exps = next
		} else {
			exps = exps[:chunks]
		}
		pool.Run(chunks, func(ci int) error {
			e := &exps[ci]
			e.sb.Reset()
			e.ends = e.ends[:0]
			e.err, e.deadAt = nil, -1
			for k, s := range batch[ci*expandChunk : min((ci+1)*expandChunk, len(batch))] {
				before := e.sb.Len()
				m.Successors(s, &e.sb)
				if err := m.Check(s); err != nil && e.err == nil {
					e.err, e.errAt = err, k
				}
				if e.sb.Len() == before && e.deadAt < 0 && !m.Quiescent(s) {
					e.deadAt = k
				}
				e.ends = append(e.ends, int32(e.sb.Len()))
			}
			n := e.sb.Len()
			e.hashes = slices.Grow(e.hashes[:0], n)[:n]
			e.mult = slices.Grow(e.mult[:0], n)[:n]
			clear(e.mult) // the fold below needs a zeroed multiplicity map
			if sym != nil {
				// Canonicalize before hashing and deduplication, so two
				// successors in the same orbit fold like any other
				// duplicate and the state table only ever sees
				// representatives. Key views are rewritten in place.
				e.orbits = slices.Grow(e.orbits[:0], n)[:n]
				c := canonPool.Get().(*Canonicalizer)
				for j := 0; j < n; j++ {
					e.orbits[j] = int32(c.Canonicalize(e.sb.Key(j)))
				}
				canonPool.Put(c)
			}
			for j := 0; j < n; j++ {
				e.hashes[j] = maphash.Bytes(seed, e.sb.Key(j))
			}
			// Fold each state's duplicate successors into their first
			// occurrence so the serial merge probes the state table once
			// per unique successor (the occurrence count keeps
			// Transitions exactly as if each duplicate were merged
			// separately).
			first := 0
			for _, end := range e.ends {
				for j := first; j < int(end); j++ {
					if e.mult[j] < 0 {
						continue
					}
					e.mult[j] = 1
					kj := e.sb.Key(j)
					for k := j + 1; k < int(end); k++ {
						if e.hashes[k] == e.hashes[j] && e.mult[k] == 0 && bytes.Equal(e.sb.Key(k), kj) {
							e.mult[j]++
							e.mult[k] = -1
						}
					}
				}
				first = int(end)
			}
			return nil
		})
		// Pre-size the discovery slices for this level's worst case, so
		// the merge loop never reallocates mid-level.
		total := 0
		for i := range exps {
			total += exps[i].sb.Len()
		}
		if room := limit - len(states); total > room {
			total = room
		}
		states = slices.Grow(states, total)
		for ci := range exps {
			e := &exps[ci]
			base := lo + ci*expandChunk
			if e.err != nil && res.Violation == nil {
				res.Violation = e.err
				res.BadState = states[base+e.errAt]
			}
			if e.deadAt >= 0 && res.Deadlock == "" {
				res.Deadlock = states[base+e.deadAt]
			}
			j := 0
			for _, end := range e.ends {
				for ; j < int(end); j++ {
					mult := e.mult[j]
					if mult < 0 {
						continue // duplicate folded into an earlier occurrence
					}
					ti, isNew := push(e.sb.Key(j), e.hashes[j], depth)
					if ti < 0 {
						continue // dropped by the exact state cap
					}
					if isNew && sym != nil {
						res.FullStates += int(e.orbits[j])
					}
					res.Transitions += int(mult)
					edgeTo = append(edgeTo, int32(ti))
				}
				edgeEnd = append(edgeEnd, int32(len(edgeTo)))
			}
		}
		lo = hi
		// Cancellation is checked between levels: the merged prefix is
		// always a consistent subgraph, and a level's expansion is the
		// unit of work bounded enough for -timeout abort latency.
		if ctx != nil && ctx.Err() != nil {
			res.Partial = true
			break
		}
	}
	res.States = len(states)
	if sym == nil {
		res.FullStates = res.States
	}
	if res.Partial {
		// The starvation property cannot be decided on a truncated
		// graph; report the prefix counts only.
		res.Elapsed = time.Since(start)
		return res
	}

	// Starvation check: backward reachability from the non-pending
	// states over a CSR predecessor adjacency (offsets + one flat edge
	// array) transposed from the forward one. The per-state predicate
	// decodes in parallel; the propagation itself is a cheap serial
	// pass, and every state it does not reach is pending and starves.
	offs := make([]int32, len(states)+1)
	for _, t := range edgeTo {
		offs[t+1]++
	}
	for i := 1; i <= len(states); i++ {
		offs[i] += offs[i-1]
	}
	preds := make([]int32, len(edgeTo))
	cursor := make([]int32, len(states))
	copy(cursor, offs[:len(states)])
	var first int32
	for from, end := range edgeEnd {
		for _, t := range edgeTo[first:end] {
			preds[cursor[t]] = int32(from)
			cursor[t]++
		}
		first = end
	}
	edgeTo, edgeEnd = nil, nil

	canReach := make([]bool, len(states))
	pool.Stripe(len(states), func(i int) {
		canReach[i] = !m.Pending(states[i])
	})
	stack := cursor[:0] // reuse the scatter cursor as the DFS stack
	for i := range states {
		if canReach[i] {
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[offs[i]:offs[i+1]] {
			if !canReach[p] {
				canReach[p] = true
				stack = append(stack, p)
			}
		}
	}
	for i, s := range states {
		if !canReach[i] {
			res.Starvation = s
			break
		}
	}

	res.Elapsed = time.Since(start)
	return res
}
