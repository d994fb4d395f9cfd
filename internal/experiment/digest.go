package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
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
	h := sha256.New()
	writeU64(h, res.Seed)
	writeU64(h, res.Stats.CompletedOps)
	writeU64(h, uint64(res.Stats.Ticks))
	writeF64(h, res.Stats.Seconds)

	for _, k := range res.Responses.Keys() {
		io.WriteString(h, k.Op)
		io.WriteString(h, "@")
		io.WriteString(h, k.DC)
		s := res.Responses.Series(k.Op, k.DC)
		writeU64(h, uint64(s.Len()))
		for i := range s.V {
			writeF64(h, s.T[i])
			writeF64(h, s.V[i])
		}
	}
	for _, k := range res.SeriesKeys() {
		io.WriteString(h, k)
		s := res.Series[k]
		writeU64(h, uint64(s.Len()))
		for i := range s.V {
			writeF64(h, s.T[i])
			writeF64(h, s.V[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeU64(w io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}

func writeF64(w io.Writer, v float64) {
	writeU64(w, math.Float64bits(v))
}
