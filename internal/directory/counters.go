package directory

import "tokencmp/internal/counters"

// ctrs holds the system-wide uniform counter handles (shared by every
// controller of one machine), pre-resolved once at construction so the
// protocol hot paths pay plain word increments.
type ctrs struct {
	l1Writeback, l2Writeback *counters.Counter
	fwdSent, invSent         *counters.Counter
	wbRace                   *counters.Counter
	memRead, memWrite        *counters.Counter
	migratory                *counters.Counter
}

func newCtrs(cs *counters.Set) *ctrs {
	return &ctrs{
		l1Writeback: cs.Counter(counters.L1Writeback),
		l2Writeback: cs.Counter(counters.L2Writeback),
		fwdSent:     cs.Counter(counters.FwdSent),
		invSent:     cs.Counter(counters.InvSent),
		wbRace:      cs.Counter(counters.WritebackRace),
		memRead:     cs.Counter(counters.MemRead),
		memWrite:    cs.Counter(counters.MemWrite),
		migratory:   cs.Counter(counters.MigratoryGrant),
	}
}
