// Fault injection: deterministic, seeded link faults — message loss,
// duplication, reordering, and latency jitter — configured by one plan,
// Config.Faults, that governs on-chip and off-chip links alike. The
// reorder window and the retransmit delay are not knobs: each is 4x the
// latency of the message's link class. The injector exists to test the
// paper's robustness claim: token coherence's timeout +
// persistent-request machinery is supposed to make forward progress
// without a well-behaved interconnect, so the interconnect must be able
// to misbehave.
//
// # Determinism
//
// All fault decisions come from one PRNG seeded by FaultConfig.Seed and
// drawn in a fixed order on each send (jitter, reorder, duplicate,
// drop). The same (seed, plan, workload) triple replays to the identical
// event sequence; no global rand, no wall clock (the simdet analyzer
// checks this package too). With every knob at zero the injector is
// completely inert: no PRNG is created, no draw is made, and the
// schedule is byte-identical to a fault-free build.
//
// # Message classes
//
// Faults are class-aware: each row of the protocol's kind table
// (Network.Kinds) names its kind's fault class. Protocols that have
// recovery machinery mark kinds droppable; everything else is
// protected. The directory and hammer tables leave every kind
// protected, so the drop/dup/reorder knobs are honest no-ops there —
// those protocols have no timeout/retry path, so "drop their messages"
// is not a scenario they claim to survive. Jitter applies to all
// classes: it varies latency without losing messages, and a per-link
// FIFO clamp keeps same-link delivery order intact for protected
// traffic (only the explicit reorder knob may violate it).
//
// Token- or data-carrying messages must not simply vanish (that would
// leak tokens forever, which even the paper's protocol cannot recover
// from without the token-recreation backstop). The FaultRetx class
// models a lightweight ack+retransmit shim: a dropped message is
// re-injected 4x the link latency later, paying bandwidth and latency
// again. The re-send happens inside the drop event, so the conservation
// monitor's in-flight tallies never see a window where tokens are
// neither held nor on the wire — TokenAudit balances at every instant.
package network

import (
	"fmt"

	"tokencmp/internal/sim"
)

// FaultClass partitions messages by how the injector may treat them.
// The protocol assigns one to each kind in its kind table.
type FaultClass uint8

const (
	// FaultProtected messages are never dropped, duplicated, or
	// reordered (jitter still applies, FIFO-clamped per link). This is
	// the zero class: every kind a table does not list, every
	// directory and hammer kind, and even in token protocols the
	// persistent-request table maintenance, since losing or reordering
	// activate/deactivate would corrupt the distributed tables with no
	// recovery path.
	FaultProtected FaultClass = iota

	// FaultDroppable messages may be dropped, duplicated, and
	// reordered freely: the protocol's own timeout machinery recovers
	// (transient requests and their forwards in token coherence).
	FaultDroppable

	// FaultRetx messages carry tokens or data, so a drop is covered by
	// the ack+retransmit shim: the message is re-injected 4x the link
	// latency later instead of vanishing. They are never duplicated or
	// reordered (the shim's sequence numbers would suppress both).
	FaultRetx
)

// FaultConfig is the injector's fault plan, applied alike to both link
// classes. The zero value disables fault injection entirely (no PRNG,
// byte-identical schedules).
type FaultConfig struct {
	// Seed drives the single fault PRNG. Runs are replayable from
	// (Seed, plan): the same configuration produces the identical
	// fault pattern and therefore the identical simulation.
	Seed int64

	Drop    float64 // per-message loss probability in [0,1)
	Dup     float64 // per-message duplication probability in [0,1]
	Reorder float64 // probability in [0,1] a droppable message is held back

	// Jitter adds a uniform [0, Jitter] delay to every message (all
	// classes; per-link FIFO order is preserved unless the reorder
	// knob fires).
	Jitter sim.Time
}

// Validate rejects a plan no run can use: Drop must lie in [0, 1),
// because a retransmitted token carrier dropped with certainty is
// resent forever; Dup and Reorder in [0, 1]; Jitter must not be
// negative. The comparisons are written so that NaN fails each of them.
func (f FaultConfig) Validate() error {
	switch {
	case !(f.Drop >= 0 && f.Drop < 1):
		return fmt.Errorf("drop must be in [0, 1), got %v", f.Drop)
	case !(f.Dup >= 0 && f.Dup <= 1):
		return fmt.Errorf("dup must be in [0, 1], got %v", f.Dup)
	case !(f.Reorder >= 0 && f.Reorder <= 1):
		return fmt.Errorf("reorder must be in [0, 1], got %v", f.Reorder)
	case f.Jitter < 0:
		return fmt.Errorf("jitter must be >= 0 ns, got %d ns", f.Jitter.Nanoseconds())
	}
	return nil
}

// Enabled reports whether any fault knob is set.
func (f FaultConfig) Enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.Jitter > 0
}

// dropCall is the closure-free ScheduleCall target for an injected loss.
func dropCall(ctx, arg any) { ctx.(*Network).drop(arg.(*Message)) }

// drop consumes a message at its would-be arrival time. The message has
// been in flight until now, so the conservation monitor's accounting is
// unwound exactly as deliver would: the per-block token/owner tallies
// decrement — a dropped monitored message must not haunt the audit.
// FaultRetx messages then re-enter the network in this same event (the
// retransmit shim), re-incrementing the tallies before any other event
// can observe a gap.
func (n *Network) drop(m *Message) {
	n.landed(m)
	if n.OnDrop != nil {
		n.OnDrop(m)
	}
	if n.ctrDropped != nil {
		n.ctrDropped.Inc()
	}
	if n.Kinds.row(m.Kind).Fault == FaultRetx {
		if n.ctrRetx != nil {
			n.ctrRetx.Inc()
		}
		// Retransmit: the same message re-enters the send path after
		// the shim's timeout, 4x the link latency, paying serialization
		// and latency again and re-rolling the fault dice (a retransmit can itself be
		// dropped; with Drop < 1 delivery is eventually certain, and
		// Drop = 1.0 on a retx class is a documented livelock, not a
		// supported configuration).
		lc, _ := n.route(m.Src, m.Dst)
		n.send(m, 4*lc.Latency, false)
		return
	}
	n.free(m)
}
