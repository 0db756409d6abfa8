package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// FuzzStream throws arbitrary and mutated byte streams at the record
// parser that pcap.Stream (and through it, the streaming consistency
// engine) faces on live, partial or adversarial captures. The invariants:
// no panic, no unbounded allocation, the batch reader and the incremental
// reader agree record-for-record, a truncation error always leaves the
// already-parsed prefix intact, and Next decodes exactly as the
// allocating reference decoder (refNext) does, with and without a size
// limit.
func FuzzStream(f *testing.F) {
	// Seed corpus: a healthy capture, a microsecond capture, truncations
	// at every interesting boundary, and hostile length fields.
	tr := sampleTrace(4)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		f.Fatal(err)
	}
	healthy := buf.Bytes()
	f.Add(healthy)
	f.Add(healthy[:24])                   // header only
	f.Add(healthy[:24+7])                 // mid record header
	f.Add(healthy[:len(healthy)-3])       // mid final body
	f.Add([]byte{})                       // empty
	f.Add([]byte{0x4d, 0x3c, 0xb2, 0xa1}) // magic only

	micros := append([]byte(nil), healthy...)
	binary.LittleEndian.PutUint32(micros[0:4], MagicMicros)
	f.Add(micros)

	// incl_len much larger than the remaining stream: must error, not
	// allocate 4 GiB.
	hostile := append([]byte(nil), healthy[:24]...)
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[8:12], 0xFFFFFFF0)
	hostile = append(hostile, rec[:]...)
	f.Add(hostile)

	// incl_len inside the snap limit but beyond the stream.
	hostile2 := append([]byte(nil), healthy[:24]...)
	binary.LittleEndian.PutUint32(rec[8:12], DefaultSnapLen)
	hostile2 = append(hostile2, rec[:]...)
	f.Add(hostile2)

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, batchErr := Read(bytes.NewReader(data), "fuzz")

		s, err := NewStream(bytes.NewReader(data), "fuzz")
		if err != nil {
			if batchErr == nil {
				t.Fatalf("stream rejected header (%v) but batch accepted", err)
			}
			return
		}
		n := 0
		var streamErr error
		for {
			p, ts, err := s.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					streamErr = err
				}
				break
			}
			if p == nil {
				t.Fatal("nil packet without error")
			}
			if batch != nil && n < batch.Len() {
				if ts != batch.Times[n] || p.Tag != batch.Packets[n].Tag {
					t.Fatalf("record %d: stream/batch disagree", n)
				}
			}
			n++
			if n > len(data) { // each record consumes ≥16 bytes; this cannot happen
				t.Fatalf("decoded %d records from %d bytes", n, len(data))
			}
		}

		// Batch and stream must agree on count and error class.
		if batch != nil && batch.Len() != n {
			t.Fatalf("batch parsed %d records, stream %d", batch.Len(), n)
		}
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("batch err %v, stream err %v", batchErr, streamErr)
		}
		if errors.Is(batchErr, ErrTruncated) && batch == nil {
			t.Fatal("truncation did not preserve the parsed prefix")
		}

		for _, limit := range []int64{0, int64(len(data) / 2)} {
			if err := diffReference(func() io.Reader { return bytes.NewReader(data) }, limit); err != nil {
				t.Fatalf("limit %d: Next differs from the reference decoder: %v", limit, err)
			}
		}
	})
}

// FuzzReadAny throws arbitrary and mutated byte streams at ReadAny, the
// entry point for uploaded and on-disk captures of either format. The
// invariants: no panic; allocation bounded by a constant factor of the
// input, however large the lengths the input declares; and the result — records, timestamps, error text —
// equal to the allocating reference readers' (refReadNG for pcapng,
// refRead for classic pcap).
func FuzzReadAny(f *testing.F) {
	var ng bytes.Buffer
	if err := WriteNG(&ng, mixedTrace(false), 0); err != nil {
		f.Fatal(err)
	}
	raw := ng.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)-5]) // torn final block
	f.Add(raw[:28+32])      // section and interface headers only
	f.Add(raw[:28+32+3])
	var classic bytes.Buffer
	if err := Write(&classic, mixedTrace(false), 0); err != nil {
		f.Fatal(err)
	}
	f.Add(classic.Bytes())
	f.Add(classic.Bytes()[:40])
	f.Add([]byte{0x0A, 0x0D, 0x0D, 0x0A})
	// A section header declaring the largest block length ReadNG
	// accepts, with nothing behind it.
	greedy := make([]byte, 12)
	binary.LittleEndian.PutUint32(greedy[0:4], blockSHB)
	binary.LittleEndian.PutUint32(greedy[4:8], 1<<26)
	f.Add(greedy)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadAny(bytes.NewReader(data), "fuzz")
		runtime.ReadMemStats(&after)
		// Length fields may claim up to 64 MiB (a pcapng block) or
		// 16 MiB (a classic record); what is allocated must scale with
		// the input behind them instead.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); alloc > bound {
			t.Fatalf("ReadAny allocated %d bytes for a %d-byte input (bound %d)", alloc, len(data), bound)
		}
		var magic uint32
		if len(data) >= 4 {
			magic = binary.LittleEndian.Uint32(data)
		}
		var want *trace.Trace
		var wantErr error
		switch magic {
		case blockSHB:
			want, wantErr = refReadNG(bytes.NewReader(data), "fuzz")
		case MagicNanos, MagicMicros, MagicNanosSwapped, MagicMicrosSwapped:
			want, wantErr = refRead(bytes.NewReader(data), "fuzz")
		default:
			if err == nil {
				t.Fatalf("ReadAny accepted unrecognized magic %#08x", magic)
			}
			return
		}
		if d := sameTraceResult(got, err, want, wantErr); d != nil {
			t.Fatal(d)
		}
	})
}
