package packet

import (
	"bytes"
	"errors"
	"fmt"
)

// FCSLen is the Ethernet frame check sequence length. FrameLen includes
// it; synthesized captures exclude it (as libpcap captures normally do).
const FCSLen = 4

// ControlPort is the UDP destination port carrying in-band Choir
// control commands.
const ControlPort = 8472

// MinDataFrameLen is the smallest frame that can carry the full
// Eth+IPv4+UDP encapsulation plus a trailer tag and FCS.
const MinDataFrameLen = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen + TagSize + FCSLen

// Frame synthesizes the on-wire bytes of the packet, excluding the FCS.
// Data and control packets end with the 16-byte trailer tag; noise
// packets are plain TCP segments; invalid packets carry a non-matching
// trailer so receivers can discard them, mirroring MoonGen's filler
// frames.
func (p *Packet) Frame() ([]byte, error) {
	if p.FrameLen < MinDataFrameLen {
		return nil, fmt.Errorf("packet: frame length %d below minimum %d", p.FrameLen, MinDataFrameLen)
	}
	capLen := p.FrameLen - FCSLen
	buf := make([]byte, 0, capLen)

	eth := EthernetHeader{
		Dst:       macFromIP(p.Flow.Dst),
		Src:       macFromIP(p.Flow.Src),
		EtherType: EtherTypeIPv4,
	}
	buf = eth.Marshal(buf)

	ipLen := capLen - EthernetHeaderLen
	proto := uint8(ProtoUDP)
	if p.Flow.Proto != 0 {
		proto = p.Flow.Proto
	}
	ip := IPv4Header{
		TotalLen: uint16(ipLen),
		ID:       uint16(p.Tag.Seq),
		TTL:      64,
		Proto:    proto,
		Src:      p.Flow.Src,
		Dst:      p.Flow.Dst,
	}
	buf = ip.Marshal(buf)

	switch proto {
	case ProtoTCP:
		tcp := TCPHeader{
			SrcPort: p.Flow.SrcPort,
			DstPort: p.Flow.DstPort,
			Seq:     uint32(p.Tag.Seq),
			Flags:   TCPFlagACK,
			Window:  65535,
		}
		buf = tcp.Marshal(buf)
	default:
		udp := UDPHeader{
			SrcPort: p.Flow.SrcPort,
			DstPort: p.Flow.DstPort,
			Length:  uint16(ipLen - IPv4HeaderLen),
		}
		buf = udp.Marshal(buf)
	}

	// Payload up to the trailer: zeros, or a length-prefixed control
	// command for in-band control frames.
	pad := capLen - len(buf) - TagSize
	if pad < 0 {
		return nil, fmt.Errorf("packet: frame length %d too small for headers", p.FrameLen)
	}
	if p.Kind == KindControl {
		if len(p.Control)+2 > pad {
			return nil, fmt.Errorf("packet: control payload %d bytes exceeds frame room %d", len(p.Control), pad-2)
		}
		buf = append(buf, byte(len(p.Control)>>8), byte(len(p.Control)))
		buf = append(buf, p.Control...)
		pad -= 2 + len(p.Control)
	}
	buf = append(buf, make([]byte, pad)...)

	switch p.Kind {
	case KindInvalid:
		// Corrupt trailer: receivers must not mistake filler for data.
		var t [TagSize]byte
		buf = append(buf, t[:]...)
	case KindNoise:
		// Noise carries no Choir trailer semantics, but keep the bytes.
		buf = AppendTag(buf, p.Tag)
		buf[len(buf)-TagSize] ^= 0xFF // break the magic
	default:
		buf = AppendTag(buf, p.Tag)
	}
	return buf, nil
}

// ParseFrame reconstructs a Packet from captured frame bytes (FCS
// excluded) into a fresh Packet. See ParseFrameInto.
func ParseFrame(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := ParseFrameInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseFrameInto reconstructs a packet from captured frame bytes (FCS
// excluded) into *p, overwriting every field. Frames without a valid
// trailer tag parse as noise. A control frame's command bytes are
// copied out, so *p never references b and the caller may reuse b as
// soon as this returns. On error *p holds no meaningful packet.
func ParseFrameInto(p *Packet, b []byte) error {
	eth, rest, err := ParseEthernet(b)
	if err != nil {
		return err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("packet: unsupported ethertype %#04x", eth.EtherType)
	}
	ip, rest, err := ParseIPv4(rest)
	if err != nil {
		return err
	}
	*p = Packet{
		FrameLen: len(b) + FCSLen,
		Flow: FiveTuple{
			Src:   ip.Src,
			Dst:   ip.Dst,
			Proto: ip.Proto,
		},
	}
	switch ip.Proto {
	case ProtoUDP:
		udp, _, err := ParseUDP(rest)
		if err != nil {
			return err
		}
		p.Flow.SrcPort, p.Flow.DstPort = udp.SrcPort, udp.DstPort
	case ProtoTCP:
		tcp, _, err := ParseTCP(rest)
		if err != nil {
			return err
		}
		p.Flow.SrcPort, p.Flow.DstPort = tcp.SrcPort, tcp.DstPort
	default:
		return errors.New("packet: unsupported transport protocol")
	}
	if tag, ok := ParseTag(b); ok {
		p.Tag = tag
		p.Kind = KindData
		if p.Flow.DstPort == ControlPort {
			p.Kind = KindControl
			if ctl, err := controlPayload(rest); err == nil {
				p.Control = bytes.Clone(ctl)
			}
		}
	} else {
		p.Kind = KindNoise
	}
	return nil
}

// controlPayload recovers the length-prefixed command bytes from the
// transport payload of a control frame.
func controlPayload(transportRest []byte) ([]byte, error) {
	// transportRest begins at the UDP header (rest after IPv4).
	if len(transportRest) < UDPHeaderLen+2 {
		return nil, errors.New("packet: control frame too short")
	}
	body := transportRest[UDPHeaderLen:]
	n := int(body[0])<<8 | int(body[1])
	if len(body) < 2+n {
		return nil, errors.New("packet: control payload truncated")
	}
	return body[2 : 2+n], nil
}

// macFromIP derives the deterministic MAC the simulation assigns to the
// node owning the address.
func macFromIP(a IPv4) MAC {
	return MACForNode(uint16(a[2])<<8|uint16(a[3]), 0)
}
