package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pcapng support: the block-structured successor format (used by modern
// capture stacks). Traces are written as one section with a single
// Ethernet interface at nanosecond resolution; readers tolerate unknown
// block types, multiple interfaces and the common per-interface
// timestamp-resolution option.

// Block type codes.
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockEPB = 0x00000006
)

const (
	byteOrderMagic = 0x1A2B3C4D
	optEndOfOpt    = 0
	optIfTsresol   = 9
)

// WriteNG serializes the trace to w in pcapng format with nanosecond
// timestamps.
func WriteNG(w io.Writer, tr *trace.Trace, snapLen int) error {
	if snapLen <= 0 {
		snapLen = DefaultSnapLen
	}
	bw := bufio.NewWriterSize(w, 1<<16)

	writeBlock := func(btype uint32, body []byte) error {
		total := uint32(12 + len(body))
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], btype)
		binary.LittleEndian.PutUint32(hdr[4:8], total)
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(body); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], total)
		_, err := bw.Write(tail[:])
		return err
	}

	// Section Header Block.
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1) // major
	binary.LittleEndian.PutUint16(shb[6:8], 0) // minor
	// Section length unknown: -1.
	binary.LittleEndian.PutUint64(shb[8:16], ^uint64(0))
	if err := writeBlock(blockSHB, shb); err != nil {
		return err
	}

	// Interface Description Block: Ethernet, ns resolution.
	idb := make([]byte, 8, 20)
	binary.LittleEndian.PutUint16(idb[0:2], LinkTypeEthernet)
	// reserved 2 bytes zero.
	binary.LittleEndian.PutUint32(idb[4:8], uint32(snapLen))
	// Option if_tsresol = 9 (10^-9 s), padded to 4 bytes.
	idb = append(idb,
		byte(optIfTsresol), 0, 1, 0, // code, len=1 (little endian)
		9, 0, 0, 0, // value + pad
		byte(optEndOfOpt), 0, 0, 0,
	)
	if err := writeBlock(blockIDB, idb); err != nil {
		return err
	}

	for i, p := range tr.Packets {
		frame, err := p.Frame()
		if err != nil {
			return fmt.Errorf("pcapng: packet %d: %w", i, err)
		}
		origLen := len(frame)
		inclLen := origLen
		if inclLen > snapLen {
			inclLen = snapLen
		}
		ts := uint64(tr.Times[i])
		pad := (4 - inclLen%4) % 4
		body := make([]byte, 20+inclLen+pad)
		// interface id 0.
		binary.LittleEndian.PutUint32(body[4:8], uint32(ts>>32))
		binary.LittleEndian.PutUint32(body[8:12], uint32(ts))
		binary.LittleEndian.PutUint32(body[12:16], uint32(inclLen))
		binary.LittleEndian.PutUint32(body[16:20], uint32(origLen))
		copy(body[20:], frame[:inclLen])
		if err := writeBlock(blockEPB, body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNGFile writes a pcapng file at path.
func WriteNGFile(path string, tr *trace.Trace, snapLen int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteNG(f, tr, snapLen); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadNG parses a pcapng stream into a trace. Unknown block types are
// skipped; per-interface timestamp resolution is honoured.
func ReadNG(r io.Reader, name string) (*trace.Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	tr := trace.New(name, 1024)
	// Per-interface timestamp scale in ns per unit.
	var ifScale []sim.Duration

	var slab packet.Slab // backs every packet of the trace
	// readBlock returns the next block's type and body. The body lives
	// in one buffer reused across calls, so it is valid only until the
	// next call.
	var buf []byte
	readBlock := func() (uint32, []byte, error) {
		hdr, err := br.Peek(8)
		if err != nil {
			return 0, nil, fullErr(len(hdr), err)
		}
		btype := binary.LittleEndian.Uint32(hdr[0:4])
		total := binary.LittleEndian.Uint32(hdr[4:8])
		_, _ = br.Discard(8) // just peeked: cannot fail
		if total < 12 || total > 1<<26 {
			return 0, nil, fmt.Errorf("pcapng: implausible block length %d", total)
		}
		body, err := readGrow(br, &buf, int(total-12))
		if err != nil {
			return 0, nil, fmt.Errorf("pcapng: block body: %w", err)
		}
		tail, err := br.Peek(4)
		if err != nil {
			return 0, nil, fmt.Errorf("pcapng: block trailer: %w", fullErr(len(tail), err))
		}
		if binary.LittleEndian.Uint32(tail) != total {
			return 0, nil, errors.New("pcapng: trailing length mismatch")
		}
		_, _ = br.Discard(4) // just peeked: cannot fail
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
			scale := sim.Duration(sim.Microsecond) // spec default 10^-6
			// Parse options for if_tsresol.
			opts := body[8:]
			for len(opts) >= 4 {
				code := binary.LittleEndian.Uint16(opts[0:2])
				olen := int(binary.LittleEndian.Uint16(opts[2:4]))
				padded := (olen + 3) / 4 * 4
				if len(opts) < 4+padded {
					break
				}
				if code == optEndOfOpt {
					break
				}
				if code == optIfTsresol && olen >= 1 {
					v := opts[4]
					if v&0x80 == 0 {
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
			scale := ifScale[ifID]
			ts := sim.Time(uint64(tsHigh)<<32|uint64(tsLow)) * scale
			p := slab.Take(1)[0]
			decodeRecord(p, body[20:20+inclLen], origLen)
			tr.Append(p, ts)
		default:
			// Unknown block: skip (already consumed).
		}
	}
}

// ReadNGFile reads a pcapng file.
func ReadNGFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadNG(f, path)
}

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// ReadAny sniffs the stream's magic and dispatches to the classic pcap
// or pcapng reader.
func ReadAny(r io.Reader, name string) (*trace.Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: sniffing format: %w", err)
	}
	switch binary.LittleEndian.Uint32(magic) {
	case blockSHB:
		return ReadNG(br, name)
	case MagicNanos, MagicMicros, MagicNanosSwapped, MagicMicrosSwapped:
		return Read(br, name)
	default:
		return nil, fmt.Errorf("pcap: unrecognized capture format (magic %#08x)", binary.LittleEndian.Uint32(magic))
	}
}

// ReadAnyFile reads a capture file in either format.
func ReadAnyFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAny(f, path)
}
