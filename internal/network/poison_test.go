//go:build simdebug

package network

import (
	"reflect"
	"testing"

	"tokencmp/internal/sim"
	"tokencmp/internal/topo"
)

// retainer deliberately breaks the ownership contract by holding the
// delivered pointer.
type retainer struct{ last *Message }

func (r *retainer) Recv(m *Message) { r.last = m }

// TestPoisonScramblesRetainedMessage proves the simdebug contract
// enforcement: a handler that retains a delivered message past Recv
// observes poison values, not the fields it was delivered with. This is
// what makes the poison-tagged CI run of the protocol suites a real
// retention check — any stack that kept a pointer would compute figures
// from garbage and fail its tests.
func TestPoisonScramblesRetainedMessage(t *testing.T) {
	if !PoisonEnabled {
		t.Fatal("simdebug build without poison")
	}
	eng := sim.NewEngine()
	g := topo.NewGeometry(2, 2, 1)
	n := New(eng, g, Default())
	r := &retainer{}
	for _, id := range g.AllNodes() {
		n.Attach(id, r)
	}
	n.SendNew(Message{Src: g.L1DNode(0, 0), Dst: g.L1DNode(0, 1), Block: 7, Data: 99, Tokens: 2})
	eng.Run(0)
	if r.last == nil {
		t.Fatal("no delivery")
	}
	if r.last.Block == 7 || r.last.Data == 99 || r.last.Tokens == 2 {
		t.Errorf("retained message not scrambled: %v", r.last)
	}
	// Every field a protocol can read carries a poison value, so a field
	// added to Message without one fails here.
	v := reflect.ValueOf(*r.last)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Errorf("poison leaves Message.%s zero", f.Name)
		}
	}
}
