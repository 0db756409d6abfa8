package pcap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refNext is the allocating record decoder Stream.Next replaced: a
// fresh buffer and io.ReadFull per record header and body, and
// packet.ParseFrame for the frame. It drives s's header fields, counters
// and sticky error exactly as Next does, so the two are compared on
// Diag as well as on records. It lives here only as the oracle for
// Next's in-place decoding.
func refNext(s *Stream) (*packet.Packet, sim.Time, error) {
	if s.err != nil {
		return nil, 0, s.err
	}
	var rec [16]byte
	if n, err := io.ReadFull(s.br, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			s.err = io.EOF
		} else if errors.Is(err, io.ErrUnexpectedEOF) {
			s.tornBytes = int64(n)
			s.reason = fmt.Sprintf("torn record header (%d of 16 bytes after record %d)", n, s.count)
			s.err = fmt.Errorf("pcap: record %d header: %w: %w", s.count, ErrTruncated, err)
		} else {
			s.reason = err.Error()
			s.err = fmt.Errorf("pcap: record %d header: %w", s.count, err)
		}
		return nil, 0, s.err
	}
	sec := s.bo.Uint32(rec[0:4])
	sub := s.bo.Uint32(rec[4:8])
	inclLen := s.bo.Uint32(rec[8:12])
	origLen := s.bo.Uint32(rec[12:16])
	if inclLen > s.snapLen {
		s.tornBytes = 16
		s.reason = fmt.Sprintf("record %d declares incl_len %d > snaplen %d", s.count, inclLen, s.snapLen)
		s.err = fmt.Errorf("pcap: record %d: incl_len %d exceeds snaplen %d", s.count, inclLen, s.snapLen)
		return nil, 0, s.err
	}
	if s.limit > 0 && s.bytes+16+int64(inclLen) > s.limit {
		s.tornBytes = 16
		s.reason = fmt.Sprintf("size limit exceeded (record %d would bring the stream to %d bytes, limit %d)",
			s.count, s.bytes+16+int64(inclLen), s.limit)
		s.err = fmt.Errorf("pcap: record %d: %w (%d bytes consumed, limit %d)", s.count, ErrLimit, s.bytes, s.limit)
		return nil, 0, s.err
	}
	buf := make([]byte, inclLen)
	if n, err := io.ReadFull(s.br, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			s.tornBytes = 16 + int64(n)
			s.reason = fmt.Sprintf("torn record body (%d of %d bytes in record %d)", n, inclLen, s.count)
			s.err = fmt.Errorf("pcap: record %d body: %w: %w", s.count, ErrTruncated, err)
		} else {
			s.reason = err.Error()
			s.err = fmt.Errorf("pcap: record %d body: %w", s.count, err)
		}
		return nil, 0, s.err
	}
	ts := sim.Time(sec)*sim.Second + sim.Time(sub)*s.tsScale
	p, err := packet.ParseFrame(buf)
	if err != nil || inclLen < origLen {
		p = &packet.Packet{Kind: packet.KindNoise, FrameLen: int(origLen) + packet.FCSLen}
	} else {
		p.FrameLen = int(origLen) + packet.FCSLen
	}
	s.count++
	s.bytes += 16 + int64(inclLen)
	return p, ts, nil
}

// errClasses names the sentinel errors a caller may test with errors.Is.
func errClasses(err error) string {
	var b strings.Builder
	for _, c := range []struct {
		name string
		err  error
	}{{"EOF", io.EOF}, {"UnexpectedEOF", io.ErrUnexpectedEOF}, {"Truncated", ErrTruncated}, {"Limit", ErrLimit}, {"boom", errBoom}} {
		if errors.Is(err, c.err) {
			b.WriteString(c.name + " ")
		}
	}
	return b.String()
}

// errBoom is the non-EOF read failure failAt injects.
var errBoom = errors.New("injected read failure")

// failAt delivers data in chunks of at most chunk bytes and fails with
// errBoom once off bytes have been delivered, so the failure lands at
// the same byte offset however the reader above it buffers.
type failAt struct {
	data       []byte
	off, chunk int
}

func (r *failAt) Read(p []byte) (int, error) {
	if r.off <= 0 {
		return 0, errBoom
	}
	n := min(len(p), r.chunk, r.off, len(r.data))
	if n == 0 {
		return 0, io.EOF
	}
	copy(p, r.data[:n])
	r.data, r.off = r.data[n:], r.off-n
	return n, nil
}

// diffReference decodes one input with Next and with refNext, each over
// its own reader from mk, and reports the first difference: header
// error, record (packet value, timestamp), error text or class, or the
// final Diag. limit, when positive, is set on both streams.
func diffReference(mk func() io.Reader, limit int64) error {
	s, errS := NewStream(mk(), "x")
	r, errR := NewStream(mk(), "x")
	if fmt.Sprint(errS) != fmt.Sprint(errR) {
		return fmt.Errorf("header: %v vs %v", errS, errR)
	}
	if errS != nil {
		return nil
	}
	s.SetLimit(limit)
	r.SetLimit(limit)
	for i := 0; ; i++ {
		p, ts, err := s.Next()
		q, tq, errQ := refNext(r)
		if fmt.Sprint(err) != fmt.Sprint(errQ) || errClasses(err) != errClasses(errQ) {
			return fmt.Errorf("record %d: error %q [%s], reference %q [%s]", i, err, errClasses(err), errQ, errClasses(errQ))
		}
		if err != nil {
			break
		}
		if ts != tq || !reflect.DeepEqual(*p, *q) {
			return fmt.Errorf("record %d: %+v @%d, reference %+v @%d", i, *p, ts, *q, tq)
		}
		if i > 1<<22 {
			return errors.New("no terminal error")
		}
	}
	if d, dq := s.Diag(), r.Diag(); d != dq {
		return fmt.Errorf("Diag %+v, reference %+v", d, dq)
	}
	return nil
}

// readers wraps an input in every reader shape the differential runs
// over: whole, one byte at a time, EOF delivered with the last data,
// and odd-sized chunks.
func readers(data []byte) map[string]func() io.Reader {
	return map[string]func() io.Reader{
		"bytes":   func() io.Reader { return bytes.NewReader(data) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		"chunk7":  func() io.Reader { return &failAt{data: data, off: len(data) + 1, chunk: 7} },
	}
}

// mixedTrace is a capture of every packet kind the writer emits — data,
// control with a command payload, TCP noise and invalid filler — plus,
// with jumbo, data frames longer than the 64 KiB read buffer.
func mixedTrace(jumbo bool) *trace.Trace {
	tr := trace.New("mixed", 32)
	flow := packet.FiveTuple{Src: packet.IPForNode(1), Dst: packet.IPForNode(2), SrcPort: 7000, DstPort: 7001, Proto: packet.ProtoUDP}
	ctl := packet.FiveTuple{Src: packet.IPForNode(1), Dst: packet.IPForNode(2), SrcPort: packet.ControlPort, DstPort: packet.ControlPort, Proto: packet.ProtoUDP}
	tcp := packet.FiveTuple{Src: packet.IPForNode(3), Dst: packet.IPForNode(4), SrcPort: 5201, DstPort: 40000, Proto: packet.ProtoTCP}
	for i := 0; i < 12; i++ {
		p := &packet.Packet{Tag: packet.Tag{Replayer: 1, Seq: uint64(i)}, Kind: packet.KindData, FrameLen: 96 + 40*i, Flow: flow}
		switch i % 4 {
		case 1:
			p.Kind, p.Flow, p.Control = packet.KindControl, ctl, []byte{byte(i), 0xC0, 0xDE}
		case 2:
			p.Kind, p.Flow = packet.KindNoise, tcp
		case 3:
			p.Kind = packet.KindInvalid
		}
		if jumbo && i%5 == 0 {
			p.FrameLen = 70_000 + 9_000*i
		}
		tr.Append(p, sim.Second*sim.Time(i)+sim.Time(i)*997)
	}
	return tr
}

// capture writes tr as a classic pcap with the given snaplen.
func capture(t testing.TB, tr *trace.Trace, snapLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr, snapLen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpusInputs decodes every checked-in FuzzStream corpus file.
func corpusInputs(t *testing.T) map[string][]byte {
	dir := filepath.Join("testdata", "fuzz", "FuzzStream")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("corpus entry %s: unexpected format", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("corpus entry %s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(s)
	}
	return out
}

// TestStreamMatchesReference: Next decodes every input exactly as the
// allocating reference decoder does — same packets, timestamps, error
// texts and classes, and Diag — over the checked-in fuzz corpus, a
// capture torn (or failing) at every byte offset, SetLimit at every
// record boundary ±1, every magic, and records longer than the read
// buffer under a 256 KiB snaplen.
func TestStreamMatchesReference(t *testing.T) {
	check := func(t *testing.T, name string, data []byte, limit int64) {
		t.Helper()
		for rd, mk := range readers(data) {
			if err := diffReference(mk, limit); err != nil {
				t.Fatalf("%s (%s reader, limit %d): %v", name, rd, limit, err)
			}
		}
	}
	// checkCut is check for the many cuts of one capture: the whole-slice
	// reader at every cut, every reader shape at every 64th (one byte at
	// a time over every cut would be quadratic in the capture size).
	checkCut := func(t *testing.T, data []byte, cut int) {
		t.Helper()
		if cut%64 == 0 {
			check(t, fmt.Sprintf("cut %d", cut), data[:cut], 0)
		} else if err := diffReference(func() io.Reader { return bytes.NewReader(data[:cut]) }, 0); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
	t.Run("corpus", func(t *testing.T) {
		for name, data := range corpusInputs(t) {
			check(t, name, data, 0)
		}
	})

	small := capture(t, mixedTrace(false), 0)
	t.Run("torn at every offset", func(t *testing.T) {
		for cut := 0; cut <= len(small); cut++ {
			checkCut(t, small, cut)
			if err := diffReference(func() io.Reader { return &failAt{data: small, off: cut, chunk: 13} }, 0); err != nil {
				t.Fatalf("read failure at %d: %v", cut, err)
			}
		}
	})
	t.Run("limit at every boundary", func(t *testing.T) {
		for off := int64(24); off <= int64(len(small)); {
			for _, lim := range []int64{off - 1, off, off + 1} {
				check(t, fmt.Sprintf("limit %d", lim), small, lim)
			}
			if off == int64(len(small)) {
				break
			}
			off += 16 + int64(binary.LittleEndian.Uint32(small[off+8:off+12]))
		}
	})
	t.Run("magics", func(t *testing.T) {
		micros := append([]byte(nil), small...)
		binary.LittleEndian.PutUint32(micros[0:4], MagicMicros)
		check(t, "nanos", small, 0)
		check(t, "micros", micros, 0)
		check(t, "nanos swapped", swapCapture(t, small), 0)
		check(t, "micros swapped", swapCapture(t, micros), 0)
	})
	t.Run("records beyond the read buffer", func(t *testing.T) {
		const snap = 262144
		tr := mixedTrace(true)
		jumbo := capture(t, tr, snap)
		check(t, "jumbo", jumbo, 0)
		check(t, "jumbo snap-truncated", capture(t, tr, 80_000), 0)
		for cut := 24; cut < len(jumbo); cut += 4093 {
			checkCut(t, jumbo, cut)
		}
		got, err := Read(bytes.NewReader(jumbo), "jumbo")
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range got.Packets {
			want := *tr.Packets[i]
			if want.Kind == packet.KindInvalid {
				want.Kind = packet.KindNoise // filler has no valid trailer
			}
			if p.Kind != want.Kind || p.FrameLen != want.FrameLen {
				t.Fatalf("jumbo record %d decoded as %v len %d, want %v len %d", i, p.Kind, p.FrameLen, want.Kind, want.FrameLen)
			}
		}
	})
}

// TestStreamOwnership pins the contract on Stream: returned packets are
// distinct, never touched by the reader again, and never alias its
// buffers.
func TestStreamOwnership(t *testing.T) {
	tr := mixedTrace(false)
	for len(tr.Packets) < 260 {
		tr.Append(tr.Packets[len(tr.Packets)%12].Clone(), tr.Times[len(tr.Times)-1]+1)
	}
	raw := capture(t, tr, 0)
	s, err := NewStream(bytes.NewReader(raw), "own")
	if err != nil {
		t.Fatal(err)
	}
	var got []*packet.Packet
	var snap []packet.Packet // value copies taken at return time
	for {
		p, _, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
		q := *p
		q.Control = bytes.Clone(p.Control)
		snap = append(snap, q)
	}
	if len(got) != len(tr.Packets) {
		t.Fatalf("decoded %d records, want %d", len(got), len(tr.Packets))
	}
	if got[1].Kind != packet.KindControl || len(got[1].Control) == 0 {
		t.Fatalf("record 1 is %v with control %v, want a control frame", got[1].Kind, got[1].Control)
	}
	seen := make(map[*packet.Packet]int)
	for i, p := range got {
		if j, dup := seen[p]; dup {
			t.Fatalf("records %d and %d share a pointer", j, i)
		}
		seen[p] = i
		// Every packet, including control frames read 200+ records
		// earlier, still holds what it held when returned.
		if !reflect.DeepEqual(*p, snap[i]) {
			t.Fatalf("record %d changed after later reads: %+v, was %+v", i, *p, snap[i])
		}
	}
	// Mutating one packet, control bytes included, leaves the rest alone.
	got[1].Control[0] ^= 0xFF
	got[1].Tag.Seq, got[1].FrameLen = 1<<40, 1
	for i, p := range got {
		if i != 1 && !reflect.DeepEqual(*p, snap[i]) {
			t.Fatalf("mutating record 1 changed record %d", i)
		}
	}
}

// refReadNG is the allocating pcapng reader ReadNG replaced: a fresh
// buffer per block header, body and trailer, and packet.ParseFrame per
// enhanced packet block. It lives here only as the oracle for ReadNG's
// reused block buffer and slab-backed packets.
func refReadNG(r io.Reader, name string) (*trace.Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	tr := trace.New(name, 1024)
	var ifScale []sim.Duration
	readBlock := func() (uint32, []byte, error) {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return 0, nil, err
		}
		btype := binary.LittleEndian.Uint32(hdr[0:4])
		total := binary.LittleEndian.Uint32(hdr[4:8])
		if total < 12 || total > 1<<26 {
			return 0, nil, fmt.Errorf("pcapng: implausible block length %d", total)
		}
		body := make([]byte, total-12)
		if _, err := io.ReadFull(br, body); err != nil {
			return 0, nil, fmt.Errorf("pcapng: block body: %w", err)
		}
		var tail [4]byte
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			return 0, nil, fmt.Errorf("pcapng: block trailer: %w", err)
		}
		if binary.LittleEndian.Uint32(tail[:]) != total {
			return 0, nil, errors.New("pcapng: trailing length mismatch")
		}
		return btype, body, nil
	}
	first := true
	for {
		btype, body, err := readBlock()
		if err != nil {
			if errors.Is(err, io.EOF) && !first {
				return tr, nil
			}
			if errors.Is(err, io.EOF) {
				return nil, errors.New("pcapng: empty stream")
			}
			return nil, err
		}
		if first {
			if btype != blockSHB {
				return nil, fmt.Errorf("pcapng: stream does not start with a section header (type %#08x)", btype)
			}
			if len(body) < 4 || binary.LittleEndian.Uint32(body[0:4]) != byteOrderMagic {
				return nil, errors.New("pcapng: unsupported byte order")
			}
			first = false
			continue
		}
		switch btype {
		case blockIDB:
			if len(body) < 8 {
				return nil, errors.New("pcapng: short interface block")
			}
			scale := sim.Duration(sim.Microsecond)
			opts := body[8:]
			for len(opts) >= 4 {
				code := binary.LittleEndian.Uint16(opts[0:2])
				olen := int(binary.LittleEndian.Uint16(opts[2:4]))
				padded := (olen + 3) / 4 * 4
				if len(opts) < 4+padded || code == optEndOfOpt {
					break
				}
				if code == optIfTsresol && olen >= 1 {
					if v := opts[4]; v&0x80 == 0 {
						scale = 1
						for i := uint8(0); i < 9-min8(v, 9); i++ {
							scale *= 10
						}
					}
				}
				opts = opts[4+padded:]
			}
			ifScale = append(ifScale, scale)
		case blockEPB:
			if len(body) < 20 {
				return nil, errors.New("pcapng: short packet block")
			}
			ifID := binary.LittleEndian.Uint32(body[0:4])
			tsHigh := binary.LittleEndian.Uint32(body[4:8])
			tsLow := binary.LittleEndian.Uint32(body[8:12])
			inclLen := binary.LittleEndian.Uint32(body[12:16])
			origLen := binary.LittleEndian.Uint32(body[16:20])
			if int(ifID) >= len(ifScale) {
				return nil, fmt.Errorf("pcapng: packet references unknown interface %d", ifID)
			}
			if len(body) < 20+int(inclLen) {
				return nil, errors.New("pcapng: packet data truncated")
			}
			ts := sim.Time(uint64(tsHigh)<<32|uint64(tsLow)) * ifScale[ifID]
			p, err := packet.ParseFrame(body[20 : 20+inclLen])
			if err != nil || inclLen < origLen {
				p = &packet.Packet{Kind: packet.KindNoise, FrameLen: int(origLen) + packet.FCSLen}
			} else {
				p.FrameLen = int(origLen) + packet.FCSLen
			}
			tr.Append(p, ts)
		}
	}
}

// refRead is the batch Read over refNext.
func refRead(r io.Reader, name string) (*trace.Trace, error) {
	s, err := NewStream(r, name)
	if err != nil {
		return nil, err
	}
	tr := trace.New(name, 1024)
	for {
		p, ts, err := refNext(s)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return tr, nil
			}
			return tr, err
		}
		tr.Append(p, ts)
	}
}

// sameTraceResult reports the first difference between two reader
// results: error text, presence of a trace, or any record.
func sameTraceResult(got *trace.Trace, err error, want *trace.Trace, wantErr error) error {
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || errClasses(err) != errClasses(wantErr) {
		return fmt.Errorf("error %q [%s], reference %q [%s]", err, errClasses(err), wantErr, errClasses(wantErr))
	}
	if (got == nil) != (want == nil) {
		return fmt.Errorf("trace %v, reference %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if got.Name != want.Name || got.Len() != want.Len() {
		return fmt.Errorf("trace %q of %d records, reference %q of %d", got.Name, got.Len(), want.Name, want.Len())
	}
	for i := range got.Packets {
		if got.Times[i] != want.Times[i] || !reflect.DeepEqual(*got.Packets[i], *want.Packets[i]) {
			return fmt.Errorf("record %d: %+v @%d, reference %+v @%d", i, *got.Packets[i], got.Times[i], *want.Packets[i], want.Times[i])
		}
	}
	return nil
}

// TestReadNGMatchesReference: ReadNG decodes pcapng captures — whole,
// torn at every byte offset, and with records beyond the read buffer —
// exactly as the allocating reference reader does.
func TestReadNGMatchesReference(t *testing.T) {
	var small, jumbo bytes.Buffer
	if err := WriteNG(&small, mixedTrace(false), 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteNG(&jumbo, mixedTrace(true), 262144); err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte) {
		t.Helper()
		got, err := ReadNG(bytes.NewReader(data), "ng")
		want, wantErr := refReadNG(bytes.NewReader(data), "ng")
		if d := sameTraceResult(got, err, want, wantErr); d != nil {
			t.Fatalf("%s: %v", name, d)
		}
	}
	for cut := 0; cut <= small.Len(); cut++ {
		check(fmt.Sprintf("cut %d", cut), small.Bytes()[:cut])
	}
	check("jumbo", jumbo.Bytes())
	for cut := 0; cut < jumbo.Len(); cut += 4093 {
		check(fmt.Sprintf("jumbo cut %d", cut), jumbo.Bytes()[:cut])
	}
}
