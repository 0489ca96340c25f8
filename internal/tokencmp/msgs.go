package tokencmp

import "tokencmp/internal/network"

// Message kinds. Transient requests, responses, and writebacks implement
// the performance policy; the persistent-request kinds belong to the
// correctness substrate.
const (
	// kTransient is a transient read or write request. Aux carries the
	// token.ReqKind; Requestor is the requesting cache; Proc the global
	// processor index. Sent intra-CMP by L1s and inter-CMP by L2 banks.
	kTransient = iota
	// kFwdExternal is an external transient request forwarded by an L2
	// bank to its local L1 caches.
	kFwdExternal
	// kResponse carries tokens (and possibly the owner token and data)
	// directly to the requesting cache.
	kResponse
	// kWriteback carries evicted tokens (and data if the owner token is
	// included) from an L1 to its L2 bank or from an L2 bank to the home
	// memory controller.
	kWriteback
	// kPersistent inserts a distributed-activation persistent request at
	// every endpoint. Aux is the token.ReqKind; Proc the issuing
	// processor; Requestor the destination cache.
	kPersistent
	// kPersistentDone deactivates processor Proc's distributed persistent
	// request at every endpoint.
	kPersistentDone
	// kArbRequest asks the home memory controller's arbiter to queue a
	// persistent request.
	kArbRequest
	// kArbDone tells the arbiter the active request for Block completed.
	kArbDone
	// kArbActivate is broadcast by the arbiter to activate one persistent
	// request at every endpoint.
	kArbActivate
	// kArbDeactivate is broadcast by the arbiter when the active request
	// for Block is done.
	kArbDeactivate
)

// classifyFault maps message kinds to fault-injection classes — the
// protocol's statement of which losses it claims to survive (installed
// on the network by NewSystem).
//
// Transient requests and their intra-CMP forwards are freely droppable,
// duplicable, and reorderable: token counting makes re-received requests
// look exactly like the retries the protocol already issues, and a lost
// request is re-sent by the requestor's timeout (escalating to a
// persistent request if retries keep failing) — this is the paper's
// robustness claim, so the injector gets to attack it.
//
// Responses and writebacks carry tokens and possibly data; losing one
// would destroy tokens forever, which the protocol cannot recover
// without token recreation (Section 2 of the token-coherence papers, not
// modeled here). They ride the ack+retransmit shim instead: a drop costs
// latency and bandwidth, never tokens.
//
// The persistent-request machinery (distributed table inserts/erases and
// the arbiter's queue/activate/deactivate traffic) is protected: those
// messages maintain replicated table state, and the protocol's
// correctness argument assumes table updates are reliable and per-link
// ordered. Attacking them tests a claim the paper never makes.
func classifyFault(m *network.Message) network.FaultClass {
	switch m.Kind {
	case kTransient, kFwdExternal:
		return network.FaultDroppable
	case kResponse, kWriteback:
		return network.FaultRetx
	default:
		return network.FaultProtected
	}
}

func kindName(k int32) string {
	switch k {
	case kTransient:
		return "Transient"
	case kFwdExternal:
		return "FwdExternal"
	case kResponse:
		return "Response"
	case kWriteback:
		return "Writeback"
	case kPersistent:
		return "Persistent"
	case kPersistentDone:
		return "PersistentDone"
	case kArbRequest:
		return "ArbRequest"
	case kArbDone:
		return "ArbDone"
	case kArbActivate:
		return "ArbActivate"
	case kArbDeactivate:
		return "ArbDeactivate"
	}
	return "?"
}
