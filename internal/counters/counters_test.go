package counters

import (
	"strings"
	"testing"
)

func TestRegisterAndCount(t *testing.T) {
	s := NewSet()
	miss := s.Counter(L1Miss)
	hit := s.Counter(L1Hit)
	for i := 0; i < 3; i++ {
		miss.Inc()
	}
	hit.Add(10)
	if got := s.Value(L1Miss); got != 3 {
		t.Errorf("Value(%s) = %d, want 3", L1Miss, got)
	}
	if got := s.Value(L1Hit); got != 10 {
		t.Errorf("Value(%s) = %d, want 10", L1Hit, got)
	}
	if got := s.Value(ProbeSent); got != 0 {
		t.Errorf("unregistered Value = %d, want 0", got)
	}
}

// TestSharedHandle pins the shared-registration contract: registering
// the same name twice returns the same handle, so two components
// incrementing "the same counter" really do.
func TestSharedHandle(t *testing.T) {
	s := NewSet()
	a := s.Counter(WritebackRace)
	b := s.Counter(WritebackRace)
	if a != b {
		t.Fatal("re-registration returned a distinct handle")
	}
	a.Inc()
	b.Inc()
	if got := s.Value(WritebackRace); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
	if n := len(s.Snapshot()); n != 1 {
		t.Errorf("Snapshot() has %d entries, want 1", n)
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	s := NewSet()
	s.Counter(L1Miss).Add(5)
	s.Counter(ProbeSent).Add(7)
	snap := s.Snapshot()
	s.Counter(L1Miss).Inc()
	if snap[L1Miss] != 5 {
		t.Errorf("snapshot aliased live counter: %d, want 5", snap[L1Miss])
	}
	acc := map[string]uint64{L1Miss: 1}
	MergeInto(acc, snap)
	if acc[L1Miss] != 6 || acc[ProbeSent] != 7 {
		t.Errorf("merged = %v", acc)
	}
}

func TestFprint(t *testing.T) {
	var sb strings.Builder
	Fprint(&sb, map[string]uint64{L1Miss: 42, L1Hit: 7})
	out := sb.String()
	hitAt := strings.Index(out, L1Hit)
	missAt := strings.Index(out, L1Miss)
	if hitAt < 0 || missAt < 0 || hitAt > missAt {
		t.Errorf("Fprint not sorted:\n%s", out)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("Fprint missing value:\n%s", out)
	}
}
