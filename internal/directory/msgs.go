// Package directory implements DirectoryCMP (Section 2): the baseline
// hierarchical MOESI coherence protocol with an intra-CMP directory at
// each L2 bank tracking L1 copies and an inter-CMP directory at each
// memory controller tracking which CMPs cache a block.
//
// Both directory levels use per-block busy states to defer conflicting
// requests, unblock messages from requesters to close transactions, and
// three-phase writebacks (PUT → grant → data), as the paper describes.
// The migratory-sharing optimization is implemented at both levels: a
// cache (or chip) holding a modified block invalidates its copy when
// responding, granting the requester read/write access even for a read
// request.
package directory

import (
	"tokencmp/internal/network"
	"tokencmp/internal/stats"
)

// Message kinds.
const (
	// kGetS / kGetM request read / write permission (L1→L2 bank intra,
	// L2 bank→home inter).
	kGetS = iota
	kGetM
	// kFwdGetS / kFwdGetM are directory forwards to the current owner
	// (L2→owner L1 intra, home→owner CMP's L2 inter). For kFwdGetM, Aux
	// carries the invalidation-ack count the requester must collect.
	kFwdGetS
	kFwdGetM
	// kFwdResp answers an intra-CMP forward: owner L1 → its L2 bank (the
	// paper's artifact — data routes through the intra-CMP directory).
	kFwdResp
	// kInv invalidates a sharer (L2→L1 intra; home→sharer CMP's L2
	// inter). Requestor names the ack collector.
	kInv
	// kInvAck acknowledges an invalidation to the collector.
	kInvAck
	// kData is a grant carrying data; Aux packs granted state, ack count,
	// and the migratory flag.
	kData
	// kGrant is a dataless grant (upgrade paths); Aux as kData.
	kGrant
	// kUnblock closes a directory transaction; Aux packs the resulting
	// state so the directory can be updated.
	kUnblock
	// kPut / kWbGrant / kWbData / kWbCancel implement three-phase
	// writebacks at both levels.
	kPut
	kWbGrant
	kWbData
	kWbCancel
)

// kinds is the protocol's kind table (installed on the network by
// NewSystem): each kind's name and Figure 7 class. A writeback's data
// counts as Writeback Data. The protocol has no timeout or retry path,
// so every kind is protected from injected faults, and no kind is
// prompt: every controller acts only after its access latency.
var kinds = network.Kinds{
	kGetS:     {Name: "GetS", Class: stats.Request},
	kGetM:     {Name: "GetM", Class: stats.Request},
	kFwdGetS:  {Name: "FwdGetS", Class: stats.InvFwdAckTokens},
	kFwdGetM:  {Name: "FwdGetM", Class: stats.InvFwdAckTokens},
	kFwdResp:  {Name: "FwdResp", Class: stats.ResponseData},
	kInv:      {Name: "Inv", Class: stats.InvFwdAckTokens},
	kInvAck:   {Name: "InvAck", Class: stats.InvFwdAckTokens},
	kData:     {Name: "Data", Class: stats.ResponseData},
	kGrant:    {Name: "Grant", Class: stats.InvFwdAckTokens},
	kUnblock:  {Name: "Unblock", Class: stats.Unblock},
	kPut:      {Name: "Put", Class: stats.WritebackControl},
	kWbGrant:  {Name: "WbGrant", Class: stats.WritebackControl},
	kWbData:   {Name: "WbData", Class: stats.WritebackControl},
	kWbCancel: {Name: "WbCancel", Class: stats.WritebackControl},
}

// grantState values carried in Aux.
type grantState int

const (
	grantS grantState = iota
	grantE
	grantM
)

// packAux encodes grant state, pending-ack count, and the migratory flag
// into a message Aux field: bits 0-1 the state, 2-25 the count, 30 the
// flag, so the value stays within the field's 31 non-sign bits.
func packAux(st grantState, acks int, migratory bool) int32 {
	v := int32(st) | int32(acks)<<2
	if migratory {
		v |= 1 << 30
	}
	return v
}

func unpackAux(v int32) (st grantState, acks int, migratory bool) {
	return grantState(v & 3), int(v>>2) & 0xFFFFFF, v&(1<<30) != 0
}
