package tokencmp

import (
	"tokencmp/internal/network"
	"tokencmp/internal/stats"
)

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

// kinds is the protocol's kind table (installed on the network by
// NewSystem): each kind's name, Figure 7 class, fault class and the
// controllers that act on it as it arrives. A response or writeback
// that carries data counts as Response Data or Writeback Data.
//
// The performance policy's messages (transient requests and their
// forwards, writebacks and responses, plus the arbiter's queue traffic
// at memory) pay each controller's access latency, except that an L1
// takes its incoming responses on arrival. The correctness substrate's
// persistent-table messages act on arrival everywhere (§3).
//
// The fault classes are the protocol's statement of which losses it
// claims to survive. Transient requests and their intra-CMP forwards
// are freely droppable, duplicable, and reorderable: token counting
// makes re-received requests look exactly like the retries the protocol
// already issues, and a lost request is re-sent by the requestor's
// timeout (escalating to a persistent request if retries keep failing)
// — this is the paper's robustness claim, so the injector gets to
// attack it.
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
var kinds = network.Kinds{
	kTransient:      {Name: "Transient", Class: stats.Request, Fault: network.FaultDroppable},
	kFwdExternal:    {Name: "FwdExternal", Class: stats.Request, Fault: network.FaultDroppable},
	kResponse:       {Name: "Response", Class: stats.InvFwdAckTokens, Fault: network.FaultRetx, Prompt: network.AtL1},
	kWriteback:      {Name: "Writeback", Class: stats.WritebackControl, Fault: network.FaultRetx},
	kPersistent:     {Name: "Persistent", Class: stats.Persistent, Fault: network.FaultProtected, Prompt: network.AtAll},
	kPersistentDone: {Name: "PersistentDone", Class: stats.Persistent, Fault: network.FaultProtected, Prompt: network.AtAll},
	kArbRequest:     {Name: "ArbRequest", Class: stats.Persistent, Fault: network.FaultProtected},
	kArbDone:        {Name: "ArbDone", Class: stats.Persistent, Fault: network.FaultProtected},
	kArbActivate:    {Name: "ArbActivate", Class: stats.Persistent, Fault: network.FaultProtected, Prompt: network.AtAll},
	kArbDeactivate:  {Name: "ArbDeactivate", Class: stats.Persistent, Fault: network.FaultProtected, Prompt: network.AtAll},
}
