package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/metrics"
)

// Digest reduces the result to a hex-encoded SHA-256 over every number the
// run produced: the run statistics, every response-time sample (by sorted
// population key) and every collector sample (by sorted series key), with
// float64s hashed by their exact bit patterns. Two results share a digest
// iff they are bit-identical — the property the sweep determinism tests
// pin across worker counts, and the cheapest way to compare a document-
// compiled experiment against its Go-built equivalent.
//
// Loop-shape counters (Jumps, SkippedTicks and the deprecated, always-zero
// Barriers, WindowsStretched, MailboxApplied) are deliberately excluded:
// they describe how the time loop partitioned the run — which legitimately
// differs between the production and the reference loop — not what the
// simulation computed. Every simulated quantity (completions, ticks,
// seconds, all samples) is hashed.
func (res *Result) Digest() string {
	d := digester{h: sha256.New(), buf: make([]byte, 0, 2*digestChunk)}
	d.u64(res.Seed)
	d.u64(res.Stats.CompletedOps)
	d.u64(uint64(res.Stats.Ticks))
	d.f64(res.Stats.Seconds)

	for _, k := range res.Responses.Keys() {
		d.str(k.Op)
		d.str("@")
		d.str(k.DC)
		d.series(res.Responses.Series(k.Op, k.DC))
	}
	for _, k := range res.SeriesKeys() {
		d.str(k)
		d.series(res.Series[k])
	}
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
}

// digestChunk is how many encoded bytes a digester gathers before it hands
// them to the hash.
const digestChunk = 4096

// digester encodes the hashed values into one reusable buffer and writes it
// to the hash in chunks, so hashing a number allocates nothing. SHA-256
// consumes a stream, so the chunking does not change the digest.
type digester struct {
	h   hash.Hash
	buf []byte
}

func (d *digester) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	if len(d.buf) >= digestChunk {
		d.flush()
	}
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.buf = append(d.buf, s...)
	if len(d.buf) >= digestChunk {
		d.flush()
	}
}

// series hashes a series' length, then its (time, value) pairs in order.
func (d *digester) series(s *metrics.Series) {
	d.u64(uint64(s.Len()))
	for i := range s.V {
		d.f64(s.T[i])
		d.f64(s.V[i])
	}
}

func (d *digester) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}
