package packet

// slabPackets is how many packets a Slab allocates at once.
const slabPackets = 64

// Slab hands out fresh packets carved from chunks of slabPackets, so a
// traffic source that emits packets one or a few at a time pays one
// packet allocation and one slice allocation per chunk rather than per
// burst. A chunk stays reachable while any of its packets is. The zero
// value is ready to use; a Slab is not safe for concurrent use.
type Slab struct {
	pkts []Packet
	ptrs []*Packet
}

// Take returns a burst of n zeroed packets for the caller to fill. The
// returned slice is capped at n, so a consumer that appends to it
// cannot reach into a later burst's pointers.
func (s *Slab) Take(n int) []*Packet {
	if len(s.pkts) < n {
		c := max(n, slabPackets)
		s.pkts, s.ptrs = make([]Packet, c), make([]*Packet, c)
	}
	burst := s.ptrs[:n:n]
	for i := range burst {
		burst[i] = &s.pkts[i]
	}
	s.pkts, s.ptrs = s.pkts[n:], s.ptrs[n:]
	return burst
}
