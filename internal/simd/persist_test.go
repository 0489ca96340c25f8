package simd

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitMetric polls until load() reaches want or the deadline passes —
// write-behind persistence is asynchronous by design, so tests
// synchronize on the durability counters exactly as the CI crash
// smoke script does.
func waitMetric(t *testing.T, what string, load func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dirEntries lists the store directory's file names with the given
// extension.
func dirEntries(t *testing.T, dir, ext string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if filepath.Ext(de.Name()) == ext {
			names = append(names, de.Name())
		}
	}
	return names
}

// TestFrameRoundTrip pins the on-disk entry frame: encode→decode is
// the identity for dated and undated entries, including empty bodies
// and keys with arbitrary bytes.
func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		key     string
		body    string
		expires time.Time
	}{
		{"k", "body", time.Unix(1234, 5678)},
		{"k|with|pipes and spaces\x00\xff", "", time.Unix(99, 0)},
		{"undated", "lives forever", time.Time{}},
	}
	for _, c := range cases {
		raw := encodeFrame(c.key, []byte(c.body), c.expires)
		key, body, expires, err := decodeFrame(raw)
		if err != nil {
			t.Fatalf("%q: %v", c.key, err)
		}
		if key != c.key || string(body) != c.body {
			t.Errorf("%q: round-tripped to key=%q body=%q", c.key, key, body)
		}
		if c.expires.IsZero() != expires.IsZero() {
			t.Errorf("%q: expiry zeroness changed", c.key)
		}
		if !c.expires.IsZero() && !expires.Equal(c.expires) {
			t.Errorf("%q: expires %v, want %v", c.key, expires, c.expires)
		}
	}
}

// TestFrameTornDetection truncates a valid frame at every length and
// flips every byte, asserting decode rejects all of it — the property
// that makes a kill -9 mid-write detectable on boot.
func TestFrameTornDetection(t *testing.T) {
	raw := encodeFrame("some-key", []byte(`{"result":42}`), time.Unix(5000, 0))
	for n := 0; n < len(raw); n++ {
		if _, _, _, err := decodeFrame(raw[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(raw))
		}
	}
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if key, body, _, err := decodeFrame(mut); err == nil {
			// A flip that survives framing must still fail the checksum.
			t.Fatalf("bit flip at %d decoded cleanly (key=%q body=%q)", i, key, body)
		}
	}
}

// FuzzFrame checks the persist frame decoder on two inputs. raw is
// arbitrary bytes: decodeFrame must not panic, a frame it accepts must
// re-encode to exactly raw, and no strict prefix of it may decode. key,
// body and expNano build a valid frame, which must decode to the same
// entry, reject every strict prefix, and reject any one corrupted body
// byte (a single-byte burst is always caught by the CRC-32).
func FuzzFrame(f *testing.F) {
	f.Add(encodeFrame("some-key", []byte(`{"result":42}`), time.Unix(5000, 0)), "k", []byte("body"), int64(1234000005678))
	f.Add([]byte("SCE0\x01\xff\xff\xff\xff"), "", []byte(nil), int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, key string, body []byte, expNano int64) {
		checkPrefixes := func(frame []byte) {
			for n := 0; n < len(frame); n++ {
				if _, _, _, err := decodeFrame(frame[:n]); err == nil {
					t.Fatalf("prefix %d/%d of a valid frame decoded cleanly", n, len(frame))
				}
			}
		}
		if k, b, e, err := decodeFrame(raw); err == nil {
			if re := encodeFrame(k, b, e); !bytes.Equal(re, raw) {
				t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", re, raw)
			}
			checkPrefixes(raw)
		}

		var expires time.Time
		if expNano != 0 {
			expires = time.Unix(0, expNano)
		}
		frame := encodeFrame(key, body, expires)
		k, b, e, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("valid frame rejected: %v", err)
		}
		if k != key || !bytes.Equal(b, body) || !e.Equal(expires) || e.IsZero() != expires.IsZero() {
			t.Fatalf("frame decoded to (%q, %q, %v), want (%q, %q, %v)", k, b, e, key, body, expires)
		}
		checkPrefixes(frame)
		bodyAt := len(frame) - 4 - len(body)
		for i := bodyAt; i < bodyAt+len(body); i++ {
			frame[i] ^= 0x5a
			if _, _, _, err := decodeFrame(frame); err == nil {
				t.Fatalf("frame with body byte %d corrupted decoded cleanly", i-bodyAt)
			}
			frame[i] ^= 0x5a
		}
	})
}

// TestStoreWriteRestore persists entries through the write-behind
// queue, then restores from a fresh Store on the same directory:
// bodies and absolute expiries must round-trip, freshest first.
func TestStoreWriteRestore(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(10_000, 0)
	s.Put("old", []byte("old-body"), base.Add(1*time.Minute))
	s.Put("new", []byte("new-body"), base.Add(9*time.Minute))
	s.Put("mid", []byte("mid-body"), base.Add(5*time.Minute))
	waitMetric(t, "PersistWritten", m.PersistWritten.Load, 3)
	s.Drain(time.Second)

	m2 := &Metrics{}
	s2, err := OpenStore(dir, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	got, err := s2.Restore(10, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("restored %d entries, want 3", len(got))
	}
	wantOrder := []string{"new", "mid", "old"} // freshest (latest expiry) first
	for i, e := range got {
		if e.Key != wantOrder[i] {
			t.Errorf("restore order[%d] = %q, want %q", i, e.Key, wantOrder[i])
		}
		if string(e.Body) != e.Key+"-body" {
			t.Errorf("restored body for %q = %q", e.Key, e.Body)
		}
	}
	if m2.Restored.Load() != 3 || m2.RestoreTorn.Load() != 0 || m2.RestoreExpired.Load() != 0 {
		t.Errorf("restore counters = %d/%d/%d, want 3/0/0",
			m2.Restored.Load(), m2.RestoreTorn.Load(), m2.RestoreExpired.Load())
	}
}

// TestRestoreBounded caps the restore pass at the cache capacity and
// deletes the overflow so the directory stays bounded.
func TestRestoreBounded(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(10_000, 0)
	for i := 0; i < 5; i++ {
		s.Put(strings.Repeat("k", i+1), []byte("body"), base.Add(time.Duration(i+1)*time.Minute))
	}
	waitMetric(t, "PersistWritten", m.PersistWritten.Load, 5)
	s.Drain(time.Second)

	s2, err := OpenStore(dir, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	got, err := s2.Restore(2, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("restored %d entries, want the 2 freshest", len(got))
	}
	if files := dirEntries(t, dir, entryExt); len(files) != 2 {
		t.Errorf("%d entry files survive a max=2 restore, want 2", len(files))
	}
}

// TestRestoreDiscardsTornExpiredAndStale seeds the directory with the
// full failure zoo — a truncated frame, a bit-flipped frame, a stale
// .tmp from a killed flush, a healthy frame under the wrong filename,
// and an expired entry — and asserts the restore pass deletes and
// counts every one of them without failing, returning only the
// healthy live entry.
func TestRestoreDiscardsTornExpiredAndStale(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(50_000, 0)
	s.Put("live", []byte("live-body"), base.Add(time.Minute))
	s.Put("dead", []byte("dead-body"), base.Add(-time.Minute)) // already expired at restore
	waitMetric(t, "PersistWritten", m.PersistWritten.Load, 2)
	s.Drain(time.Second)

	// Torn: a valid frame truncated mid-body.
	full := encodeFrame("torn", []byte("torn-body"), base.Add(time.Minute))
	writeRaw(t, s.entryPath("torn"), full[:len(full)-6])
	// Corrupt: full length, one byte flipped.
	full = encodeFrame("corrupt", []byte("corrupt-body"), base.Add(time.Minute))
	full[len(full)/2] ^= 1
	writeRaw(t, s.entryPath("corrupt"), full)
	// Stale .tmp from a crashed flush.
	writeRaw(t, s.entryPath("staletmp")+tmpExt, []byte("half a frame"))
	// Healthy frame under a filename that does not match its key.
	writeRaw(t, filepath.Join(dir, strings.Repeat("ab", 32)+entryExt),
		encodeFrame("renamed", []byte("renamed-body"), base.Add(time.Minute)))

	m2 := &Metrics{}
	s2, err := OpenStore(dir, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	got, err := s2.Restore(10, base)
	if err != nil {
		t.Fatalf("restore must never fail over bad files: %v", err)
	}
	if len(got) != 1 || got[0].Key != "live" || string(got[0].Body) != "live-body" {
		t.Fatalf("restored %+v, want only the live entry", got)
	}
	if m2.RestoreTorn.Load() != 4 {
		t.Errorf("RestoreTorn = %d, want 4 (torn, corrupt, stale tmp, renamed)", m2.RestoreTorn.Load())
	}
	if m2.RestoreExpired.Load() != 1 {
		t.Errorf("RestoreExpired = %d, want 1", m2.RestoreExpired.Load())
	}
	if files := dirEntries(t, dir, entryExt); len(files) != 1 {
		t.Errorf("%d entry files survive, want 1 (bad ones deleted)", len(files))
	}
	if tmps := dirEntries(t, dir, tmpExt); len(tmps) != 0 {
		t.Errorf("stale .tmp files survive restore: %v", tmps)
	}
}

// TestRestoreTTLBoundary pins the expiry comparison at the exact
// boundary: an entry expiring precisely at restore time is dead
// (consistent with Cache.Lookup's !now.Before(expires)), one
// nanosecond later it is alive, and an undated entry always lives.
func TestRestoreTTLBoundary(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(70_000, 0)
	s.Put("at-boundary", []byte("b"), base)
	s.Put("one-nano-late", []byte("b"), base.Add(time.Nanosecond))
	s.Put("undated", []byte("b"), time.Time{})
	waitMetric(t, "PersistWritten", m.PersistWritten.Load, 3)
	s.Drain(time.Second)

	m2 := &Metrics{}
	s2, err := OpenStore(dir, m2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	got, err := s2.Restore(10, base)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, e := range got {
		keys[e.Key] = true
	}
	if keys["at-boundary"] {
		t.Error("entry expiring exactly at restore time survived")
	}
	if !keys["one-nano-late"] {
		t.Error("entry expiring 1ns after restore time discarded")
	}
	if !keys["undated"] {
		t.Error("undated entry discarded")
	}
	if m2.RestoreExpired.Load() != 1 {
		t.Errorf("RestoreExpired = %d, want 1", m2.RestoreExpired.Load())
	}
}

// TestDrainCompletesPendingWrites asserts a drain with budget lands
// every queued flush atomically: all final files parse, no .tmp
// residue.
func TestDrainCompletesPendingWrites(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Put(strings.Repeat("x", i+1), []byte("body"), time.Time{})
	}
	s.Drain(5 * time.Second)
	if m.PersistWritten.Load() != 20 {
		t.Fatalf("PersistWritten = %d after drain, want 20", m.PersistWritten.Load())
	}
	files := dirEntries(t, dir, entryExt)
	if len(files) != 20 {
		t.Fatalf("%d entry files, want 20", len(files))
	}
	for _, name := range files {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := decodeFrame(raw); err != nil {
			t.Errorf("%s is torn after a clean drain", name)
		}
	}
	if tmps := dirEntries(t, dir, tmpExt); len(tmps) != 0 {
		t.Errorf(".tmp residue after clean drain: %v", tmps)
	}
}

// TestDrainAbandonsMidFlushCleanly pins the SIGTERM-during-flush
// contract: when the drain budget expires while a write is between
// its .tmp write and the rename, the flush is abandoned — the .tmp is
// removed and no torn final file appears.
func TestDrainAbandonsMidFlushCleanly(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	s.beforeRename = func() {
		close(entered)
		<-release
	}
	s.Put("stuck", []byte("never lands"), time.Time{})
	<-entered // the flusher sits between tmp write and rename
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	s.Drain(10 * time.Millisecond) // expires long before release
	if got := dirEntries(t, dir, entryExt); len(got) != 0 {
		t.Errorf("final entry files after abandoned flush: %v", got)
	}
	if tmps := dirEntries(t, dir, tmpExt); len(tmps) != 0 {
		t.Errorf(".tmp residue after abandoned flush: %v", tmps)
	}
	if m.PersistWritten.Load() != 0 {
		t.Errorf("PersistWritten = %d for an abandoned flush, want 0", m.PersistWritten.Load())
	}
}

// TestCacheEvictionAndExpiryDeleteBackingFiles asserts the disk stays
// a mirror of memory: LRU eviction and TTL expiry both remove the
// entry's file, so a restart cannot resurrect bodies the cache
// already dropped.
func TestCacheEvictionAndExpiryDeleteBackingFiles(t *testing.T) {
	dir := t.TempDir()
	m := &Metrics{}
	s, err := OpenStore(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(2, time.Minute, context.Background(), m)
	c.store = s
	clock := time.Unix(90_000, 0)
	c.now = func() time.Time { return clock }
	put := func(key string) {
		t.Helper()
		if _, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
			return []byte(key + "-body"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("c") // evicts a
	waitMetric(t, "PersistDeleted", m.PersistDeleted.Load, 1)
	clock = clock.Add(2 * time.Minute)
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("b survived its TTL")
	}
	waitMetric(t, "PersistDeleted", m.PersistDeleted.Load, 2)
	s.Drain(time.Second)
	files := dirEntries(t, dir, entryExt)
	if len(files) != 1 {
		t.Fatalf("%d backing files, want 1 (only c)", len(files))
	}
	raw, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	key, body, _, err := decodeFrame(raw)
	if err != nil || key != "c" || string(body) != "c-body" {
		t.Fatalf("surviving file = key %q body %q err %v, want c", key, body, err)
	}
}

func writeRaw(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
