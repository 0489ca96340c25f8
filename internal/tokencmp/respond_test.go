package tokencmp

import (
	"testing"

	"tokencmp/internal/network"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// ruleBase returns a cache endpoint of a 2-CMP machine with 2
// processors and 2 banks per CMP: T = 16 tokens, C = 6 caches per CMP.
func ruleBase(disableMigratory bool) *base {
	sys := &System{T: 16, Cfg: Config{DisableMigratory: disableMigratory}}
	sys.Geom = topo.NewGeometry(2, 2, 2)
	return &base{sys: sys}
}

func request(write bool) *network.Message {
	if write {
		return &network.Message{Aux: int32(token.ReqWrite)}
	}
	return &network.Message{Aux: int32(token.ReqRead)}
}

// TestRespondRules checks every case of the Section 4 response rules:
// what the response carries, what the responder keeps, and the
// emptied and migratory reports.
func TestRespondRules(t *testing.T) {
	const T, d = 16, 42
	owner := func(tokens int, dirty bool) token.State {
		return token.State{Tokens: tokens, Owner: true, HasData: true, Dirty: dirty, Data: d}
	}
	sharer := func(tokens int, hasData bool) token.State {
		return token.State{Tokens: tokens, HasData: hasData, Data: d}
	}
	cases := []struct {
		name                    string
		s                       token.State
		write, external, noMigr bool
		resp                    network.Message // Tokens, Owner, HasData, Data, Dirty
		keep                    token.State
		emptied, migratory      bool
	}{
		{name: "write takes all from the owner", s: owner(T, true), write: true,
			resp: network.Message{Tokens: T, Owner: true, HasData: true, Data: d, Dirty: true}, emptied: true},
		{name: "write takes a sharer's tokens without data", s: sharer(3, true), write: true, external: true,
			resp: network.Message{Tokens: 3, Data: d}, emptied: true},
		{name: "migratory read takes all", s: owner(T, true),
			resp: network.Message{Tokens: T, Owner: true, HasData: true, Data: d, Dirty: true}, emptied: true, migratory: true},
		{name: "external migratory read takes all", s: owner(T, true), external: true,
			resp: network.Message{Tokens: T, Owner: true, HasData: true, Data: d, Dirty: true}, emptied: true, migratory: true},
		{name: "migratory disabled: local read gets one token", s: owner(T, true), noMigr: true,
			resp: network.Message{Tokens: 1, HasData: true, Data: d}, keep: owner(T-1, true)},
		{name: "migratory disabled: external read gets C tokens", s: owner(T, true), external: true, noMigr: true,
			resp: network.Message{Tokens: 6, HasData: true, Data: d}, keep: owner(T-6, true)},
		{name: "clean owner of all tokens is not migratory", s: owner(T, false),
			resp: network.Message{Tokens: 1, HasData: true, Data: d}, keep: owner(T-1, false)},
		{name: "external read leaves the owner its last token", s: owner(3, true), external: true,
			resp: network.Message{Tokens: 2, HasData: true, Data: d}, keep: owner(1, true)},
		{name: "owner-only hands over ownership", s: owner(1, true),
			resp: network.Message{Tokens: 1, Owner: true, HasData: true, Data: d, Dirty: true}, emptied: true},
		{name: "external owner-only hands over ownership", s: owner(1, false), external: true,
			resp: network.Message{Tokens: 1, Owner: true, HasData: true, Data: d}, emptied: true},
		{name: "local sharer with a spare token serves a read", s: sharer(2, true),
			resp: network.Message{Tokens: 1, HasData: true, Data: d}, keep: sharer(1, true)},
		{name: "silent: external read at a sharer", s: sharer(4, true), external: true, keep: sharer(4, true)},
		{name: "silent: local read at a sharer's last token", s: sharer(1, true), keep: sharer(1, true)},
		{name: "silent: local read at a sharer without data", s: sharer(3, false), keep: sharer(3, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			resp, emptied, migratory := ruleBase(tc.noMigr).respond(request(tc.write), &s, tc.external)
			if resp != tc.resp {
				t.Errorf("resp = %+v, want %+v", resp, tc.resp)
			}
			if s != tc.keep {
				t.Errorf("kept %+v, want %+v", s, tc.keep)
			}
			if emptied != tc.emptied || migratory != tc.migratory {
				t.Errorf("emptied, migratory = %v, %v, want %v, %v", emptied, migratory, tc.emptied, tc.migratory)
			}
		})
	}
}

// FuzzRespond applies the response rules to any valid cache state (one
// to T tokens; an owner holds data) and request. Tokens and the owner
// token are conserved between the state and the response, an owner
// token travels with data, a write empties the state, and a silent
// response leaves the state alone.
func FuzzRespond(f *testing.F) {
	f.Add(uint8(16), true, true, true, uint64(7), false, false, false) // migratory
	f.Add(uint8(16), true, true, true, uint64(7), false, true, true)   // C tokens out
	f.Add(uint8(1), true, true, false, uint64(7), false, true, false)  // owner-only
	f.Add(uint8(3), false, true, false, uint64(7), true, false, false) // write at a sharer
	f.Add(uint8(2), false, true, false, uint64(7), false, false, false)
	f.Fuzz(func(t *testing.T, tokens uint8, owner, hasData, dirty bool, data uint64, write, external, noMigr bool) {
		c := ruleBase(noMigr)
		T := c.sys.T
		in := token.State{Tokens: 1 + int(tokens)%T, Owner: owner, HasData: hasData || owner, Dirty: dirty, Data: data}
		s := in
		resp, emptied, migratory := c.respond(request(write), &s, external)

		if got := s.Tokens + int(resp.Tokens); got != in.Tokens || s.Tokens < 0 {
			t.Fatalf("%+v: kept %d + sent %d tokens, want %d in all", in, s.Tokens, resp.Tokens, in.Tokens)
		}
		if s.Owner && resp.Owner || (s.Owner || resp.Owner) != in.Owner {
			t.Fatalf("%+v: owner token kept %v, sent %v", in, s.Owner, resp.Owner)
		}
		if resp.Owner && !resp.HasData {
			t.Fatalf("%+v: the owner token travels without data: %+v", in, resp)
		}
		if resp.HasData && resp.Data != in.Data {
			t.Fatalf("%+v: response carries data %d", in, resp.Data)
		}
		if s.Owner && !s.HasData {
			t.Fatalf("%+v: kept the owner token without data: %+v", in, s)
		}
		if write && (s != token.State{} || !emptied) {
			t.Fatalf("%+v: a write left %+v (emptied %v)", in, s, emptied)
		}
		if emptied != (s.Tokens == 0) {
			t.Fatalf("%+v: emptied = %v with %d tokens kept", in, emptied, s.Tokens)
		}
		if resp.Tokens == 0 && s != in {
			t.Fatalf("%+v: a silent response changed the state to %+v", in, s)
		}
		if migratory && (write || !in.Owner || in.Tokens != T || !in.Dirty || noMigr) {
			t.Fatalf("%+v: migratory handoff for write=%v noMigr=%v", in, write, noMigr)
		}
	})
}
