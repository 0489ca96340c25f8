package mc

// SuccBuf collects the packed successor keys of one state in a single
// flat byte buffer. Models emit each successor with Emit, which copies
// the packed key into the buffer — no string allocation per successor.
// The checker hashes and deduplicates the raw byte views and interns a
// key (one copy into a shared string chunk) only when it is first
// discovered; everything emitted for an already-known state costs no
// allocation at all.
//
// A SuccBuf is owned by one checker worker and reused across BFS
// levels, so its buffers stop growing once they have seen the largest
// expansion.
type SuccBuf struct {
	buf  []byte
	ends []int32 // end offset of key i in buf
}

// Reset empties the buffer, keeping its capacity.
func (sb *SuccBuf) Reset() {
	sb.buf = sb.buf[:0]
	sb.ends = sb.ends[:0]
}

// Emit appends one packed successor key. The bytes are copied; the
// caller may reuse key immediately.
func (sb *SuccBuf) Emit(key []byte) {
	sb.buf = append(sb.buf, key...)
	sb.ends = append(sb.ends, int32(len(sb.buf)))
}

// Len reports the number of emitted keys.
func (sb *SuccBuf) Len() int { return len(sb.ends) }

// Key returns a view of the i-th emitted key, valid until the next
// Reset. The view is mutable and aliases the buffer: the checker's
// symmetry reduction relies on this to canonicalize emitted keys in
// place (every key keeps its emitted width) before hashing them.
func (sb *SuccBuf) Key(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = sb.ends[i-1]
	}
	return sb.buf[start:sb.ends[i]]
}
