package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// benchRecords is the capture size of the reader benchmarks: 20k
// records of 256-byte frames, a few MB, so one op is long enough to
// time and the per-stream set-up (read buffer, first slab chunk) is a
// small share of it.
const benchRecords = 20_000

func benchCapture(b *testing.B, write func(io.Writer) error) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkStreamNext is the pcap stream read layer: one op decodes a
// whole classic capture record by record through Stream.Next, as
// stream.Run's sources and choird's spool readers do. MB/s is input
// bytes; records/op lets allocs/op be read per record (verify.sh -bench
// holds it to 0.1).
func BenchmarkStreamNext(b *testing.B) {
	tr := sampleTrace(benchRecords)
	raw := benchCapture(b, func(w io.Writer) error { return Write(w, tr, 0) })
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStream(bytes.NewReader(raw), "bench")
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, _, err = s.Next(); err != nil {
				break
			}
		}
		if !errors.Is(err, io.EOF) || s.Count() != benchRecords {
			b.Fatalf("decoded %d records, ended with %v", s.Count(), err)
		}
	}
	b.ReportMetric(benchRecords, "records/op")
}

// BenchmarkReadAny is the batch capture read behind consistency.Report
// and choird's upload path: format sniffing and a whole trace
// materialized, from a classic and from a pcapng capture.
func BenchmarkReadAny(b *testing.B) {
	tr := sampleTrace(benchRecords)
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"pcap", func(w io.Writer) error { return Write(w, tr, 0) }},
		{"pcapng", func(w io.Writer) error { return WriteNG(w, tr, 0) }},
	} {
		b.Run(f.name, func(b *testing.B) {
			raw := benchCapture(b, f.write)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := ReadAny(bytes.NewReader(raw), "bench")
				if err != nil || got.Len() != benchRecords {
					b.Fatalf("read %v records: %v", got, err)
				}
			}
			b.ReportMetric(benchRecords, "records/op")
		})
	}
}
