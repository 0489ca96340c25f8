package models

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"tokencmp/internal/mc"
)

// explore walks up to limit reachable states of m (serial BFS over the
// packed keys) for use as property-test corpora.
func explore(t *testing.T, m mc.Model, limit int) []string {
	t.Helper()
	seen := map[string]bool{}
	queue := m.Initial()
	var sb mc.SuccBuf
	var out []string
	for len(queue) > 0 && len(out) < limit {
		s := queue[0]
		queue = queue[1:]
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
		sb.Reset()
		m.Successors(s, &sb)
		for i := 0; i < sb.Len(); i++ {
			queue = append(queue, string(sb.Key(i)))
		}
	}
	if len(out) < 50 {
		t.Fatalf("explored only %d states; corpus too small to be meaningful", len(out))
	}
	return out
}

// TestTokenRoundTrip asserts encode(decode(key)) == key over a reachable
// corpus of every activation variant: the packed layout is injective
// and decode loses no field.
func TestTokenRoundTrip(t *testing.T) {
	for _, act := range []Activation{SafetyOnly, ArbiterAct, DistributedAct} {
		m := NewTokenModel(DefaultTokenConfig(act))
		st := m.newState()
		key := make([]byte, m.width)
		for _, s := range explore(t, m, 3000) {
			m.decode(s, &st)
			m.encode(&st, key)
			if string(key) != s {
				t.Fatalf("%s: decode→encode changed the key\n in: %x\nout: %x", m.Name(), s, key)
			}
		}
	}
}

// TestDirRoundTrip is the directory-model round-trip property.
func TestDirRoundTrip(t *testing.T) {
	m := NewDirModel(3, 3)
	st := m.newState()
	key := make([]byte, m.width)
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		m.encode(&st, key)
		if string(key) != s {
			t.Fatalf("decode→encode changed the key\n in: %x\nout: %x", s, key)
		}
	}
}

// TestHammerRoundTrip is the hammer-model round-trip property.
func TestHammerRoundTrip(t *testing.T) {
	m := NewHammerModel(3, 5)
	st := m.newState()
	key := make([]byte, m.width)
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		m.encode(&st, key)
		if string(key) != s {
			t.Fatalf("decode→encode changed the key\n in: %x\nout: %x", s, key)
		}
	}
}

// permutations of small index sets, for canonicalization tests.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// TestTokenCanonicalOrder asserts the packed-byte message
// canonicalization is permutation-invariant: every ordering of a
// state's in-flight messages encodes to the same key, so states
// differing only by message permutation still collapse — the property
// the seed's fmt.Sprint sort.Slice provided, now via direct byte
// comparison.
func TestTokenCanonicalOrder(t *testing.T) {
	m := NewTokenModel(DefaultTokenConfig(DistributedAct))
	st := m.newState()
	key := make([]byte, m.width)
	checked := 0
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		if len(st.Msgs) < 2 {
			continue
		}
		msgs := append([]tmsg{}, st.Msgs...)
		for _, p := range permutations(len(msgs)) {
			for i, j := range p {
				st.Msgs[i] = msgs[j]
			}
			m.encode(&st, key)
			if string(key) != s {
				t.Fatalf("message permutation %v changed the key\n in: %x\nout: %x", p, s, key)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no multi-message states in the corpus")
	}
}

// TestDirCanonicalOrder is the directory-model permutation-invariance
// property.
func TestDirCanonicalOrder(t *testing.T) {
	m := NewDirModel(3, 3)
	st := m.newState()
	key := make([]byte, m.width)
	checked := 0
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		if len(st.Msgs) < 2 || len(st.Msgs) > 5 {
			continue
		}
		msgs := append([]dmsg{}, st.Msgs...)
		for _, p := range permutations(len(msgs)) {
			for i, j := range p {
				st.Msgs[i] = msgs[j]
			}
			m.encode(&st, key)
			if string(key) != s {
				t.Fatalf("message permutation %v changed the key\n in: %x\nout: %x", p, s, key)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no multi-message states in the corpus")
	}
}

// TestHammerCanonicalOrder is the hammer-model permutation-invariance
// property.
func TestHammerCanonicalOrder(t *testing.T) {
	m := NewHammerModel(2, 5)
	st := m.newState()
	key := make([]byte, m.width)
	checked := 0
	for _, s := range explore(t, m, 3000) {
		m.decode(s, &st)
		if len(st.Msgs) < 2 || len(st.Msgs) > 5 {
			continue
		}
		msgs := append([]hmsg{}, st.Msgs...)
		for _, p := range permutations(len(msgs)) {
			for i, j := range p {
				st.Msgs[i] = msgs[j]
			}
			m.encode(&st, key)
			if string(key) != s {
				t.Fatalf("message permutation %v changed the key\n in: %x\nout: %x", p, s, key)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no multi-message states in the corpus")
	}
}

// TestSortSlots pins the slot sorter against a sort.Slice reference:
// ascending lexicographic byte order, duplicates preserved, and the
// guard bytes after the record area untouched. It covers the record
// widths 1, 2, 3 and 8 and every record count up to the most slots a
// hammer key can hold (its count byte caps them at 255), with records
// drawn from a small alphabet so duplicates are common.
func TestSortSlots(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	guard := []byte{0xAA, 0x55, 0x00, 0xFF}
	for _, w := range []int{1, 2, 3, 8} {
		for n := 0; n <= 255; n++ {
			b := make([]byte, n*w, n*w+len(guard))
			for i := range b {
				b[i] = byte(rng.IntN(3)) * 0x7F // 0x00, 0x7F or 0xFE
			}
			recs := make([][]byte, n)
			for i := range recs {
				recs[i] = bytes.Clone(b[i*w : (i+1)*w])
			}
			sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
			want := append(bytes.Join(recs, nil), guard...)
			b = append(b, guard...)
			mc.SortSlots(b, n, w)
			if !bytes.Equal(b, want) {
				t.Fatalf("w=%d n=%d: SortSlots = %x, want %x", w, n, b, want)
			}
		}
	}
}

// TestDecodeMatchesStructs spot-checks a hand-built token state against
// decode, so the bit assignments in the layout comments stay honest.
func TestDecodeMatchesStructs(t *testing.T) {
	m := NewTokenModel(DefaultTokenConfig(ArbiterAct))
	s := &tstate{
		Holders: []holder{{Tokens: 1, HasData: true, Current: true}, {}, {Tokens: 1}, {Tokens: 2, Owner: true, HasData: true, Current: true}},
		Msgs:    []tmsg{{Tokens: 1, Dst: 2}},
		Reqs:    []preq{{Valid: true, Write: true}, {}, {Valid: true}},
		ArbQ:    []int{0, 2},
	}
	key := make([]byte, m.width)
	m.encode(s, key)
	got := m.newState()
	m.decode(string(key), &got)
	if !reflect.DeepEqual(got.Holders, s.Holders) || !reflect.DeepEqual(got.Msgs, s.Msgs) ||
		!reflect.DeepEqual(got.Reqs, s.Reqs) || !reflect.DeepEqual(got.ArbQ, s.ArbQ) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", got, *s)
	}
}
