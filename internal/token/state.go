// Package token implements the flat correctness substrate of token
// coherence as extended to M-CMP systems by the paper (Section 3).
//
// Safety: every block has exactly T tokens, one distinguished as the
// owner token. A cache may read a block while holding at least one token
// and valid data, and may write only while holding all T tokens. Tokens
// are exchanged among *caches* (L1 data, L1 instruction, L2 banks) and
// memory controllers — not among nodes — which is what makes the
// substrate flat in an M-CMP.
//
// Starvation avoidance: when transient requests fail, the substrate
// issues persistent requests. Two activation mechanisms are provided:
// the original arbiter-based scheme (one arbiter per memory controller)
// and the paper's new distributed scheme (per-processor entries in every
// cache, fixed priority, and a marking mechanism that throttles
// re-requests). Persistent read requests, which force holders to give up
// all but one token, are also implemented.
package token

import "tokencmp/internal/sim"

// State is the per-line token-coherence state held by a cache or, per
// block, by a memory controller.
type State struct {
	Tokens  int    // tokens held, including the owner token if Owner
	Owner   bool   // holds the owner token
	HasData bool   // holds valid data (always true when Owner)
	Dirty   bool   // data modified relative to memory
	Data    uint64 // modeled block value

	// HoldUntil implements the response-delay mechanism (§3.2): the
	// holder ignores token-stealing requests until this time so a short
	// critical section can complete. Zero means no hold.
	HoldUntil sim.Time
}

// CanRead reports whether a processor may read the block in this state.
func (s *State) CanRead() bool { return s.Tokens >= 1 && s.HasData }

// CanWrite reports whether a processor may write the block in this state,
// given the system-wide token count t.
func (s *State) CanWrite(t int) bool { return s.Tokens == t && s.HasData }

// Merge folds an arriving message payload (tokens, owner, data) into s.
func (s *State) Merge(tokens int, owner bool, hasData bool, data uint64, dirty bool) {
	s.Tokens += tokens
	if owner {
		s.Owner = true
	}
	if hasData {
		s.HasData = true
		s.Data = data
		if dirty {
			s.Dirty = true
		}
	}
}

// TakeAll removes and returns everything: the full token count, owner
// status, and data. The state becomes empty.
func (s *State) TakeAll() (tokens int, owner, hasData bool, data uint64, dirty bool) {
	tokens, owner, hasData, data, dirty = s.Tokens, s.Owner, s.HasData, s.Data, s.Dirty
	*s = State{}
	return
}

// TokenCountFor returns the system-wide token count T for a system with
// the given number of caches: the smallest power of two strictly greater
// than the cache count, so that (1) all caches can share a block and (2)
// a persistent read request — which leaves at most one token at each
// cache — is guaranteed to obtain a token (§3.2).
func TokenCountFor(caches int) int {
	t := 1
	for t <= caches {
		t <<= 1
	}
	return t
}
