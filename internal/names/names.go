// Package names cuts many short strings out of a few byte chunks, so that a
// platform's agent names, probe keys and series names cost a few
// allocations in all rather than one each.
package names

import (
	"strconv"
	"unsafe"
)

// Slab writes names into a chunk of bytes and hands each one out as a
// string over the bytes it was written to. A byte is written once and never
// again, so a name stays valid for as long as it is held. A name is written
// piece by piece (Str, Int) and taken with Cut. When a piece does not fit,
// a new chunk is started and only the name being written moves into it, so
// no name is ever copied twice and a chunk holds nothing but names. Grow
// sizes the next chunk for a batch of known length, so that the batch costs
// one allocation; otherwise chunks double from minChunk to maxChunk bytes.
// The zero Slab is ready to use.
type Slab struct {
	buf   []byte // the current chunk; its bytes below len are written
	start int    // where the name being written begins in buf
}

// Chunk sizes when no Grow has sized the batch.
const (
	minChunk = 64
	maxChunk = 4096
)

// Grow makes room for n more bytes in the current chunk.
func (s *Slab) Grow(n int) {
	if cap(s.buf)-len(s.buf) < n {
		s.move(n)
	}
}

// move starts a chunk with room for the name being written plus n bytes,
// and carries that name over.
func (s *Slab) move(n int) {
	cur := s.buf[s.start:]
	buf := make([]byte, len(cur), len(cur)+n)
	copy(buf, cur)
	s.buf, s.start = buf, 0
}

// write appends b, starting a chunk when it does not fit.
func (s *Slab) write(b []byte) {
	if cap(s.buf)-len(s.buf) < len(b) {
		next := min(max(2*cap(s.buf), minChunk), maxChunk)
		s.move(max(next-(len(s.buf)-s.start), len(b)))
	}
	s.buf = append(s.buf, b...)
}

// Str appends x to the name being written.
func (s *Slab) Str(x string) *Slab {
	s.write(unsafe.Slice(unsafe.StringData(x), len(x)))
	return s
}

// Int appends the decimal form of i to the name being written.
func (s *Slab) Int(i int) *Slab {
	var d [20]byte
	s.write(strconv.AppendInt(d[:0], int64(i), 10))
	return s
}

// Cut returns the name written since the last Cut and starts the next one.
func (s *Slab) Cut() string {
	name := s.buf[s.start:]
	s.start = len(s.buf)
	return unsafe.String(unsafe.SliceData(name), len(name))
}

// IntLen returns the length of the decimal form of i, for sizing a Grow.
func IntLen(i int) int {
	n := 1
	if i < 0 {
		n, i = 2, -i
	}
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}
