package sim

// queue is the engine's event queue: a 4-ary min-heap of pointer-free
// keys over a slot table holding each queued event's payload. Sifts move
// only 24-byte keys — no interface dispatch, no write barriers, nothing
// for the GC to scan — while the payloads, which do hold pointers, stay
// put in their slots until the event pops. Freed slots are reused
// through a free-slot list, so a steady schedule allocates nothing.
//
// Pop order is the (at, lane, seq) order of the keys. Every queued key
// is unique, so that order is total and any correct heap pops the same
// sequence — the heap's arity and layout cannot change a simulation.
type queue struct {
	keys  []key
	slots []slot
	free  []uint32
}

// key is one queued event's ordering key plus the index of its slot.
type key struct {
	at   Time
	seq  uint64
	lane uint32
	slot uint32
}

// slot is one queued event's payload.
type slot struct {
	h   Handler
	arg any
	ev  *Event // handle of a Schedule'd event; nil for handle-free posts
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// push queues an event with the given key and payload.
func (q *queue) push(at Time, lane uint32, seq uint64, s slot) {
	var i uint32
	if n := len(q.free); n > 0 {
		i = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[i] = s
	} else {
		i = uint32(len(q.slots))
		q.slots = append(q.slots, s)
	}
	q.keys = append(q.keys, key{at: at, seq: seq, lane: lane, slot: i})
	q.up(len(q.keys) - 1)
}

// pop removes and returns the minimum key; its slot stays occupied
// until release. The queue must not be empty.
func (q *queue) pop() key {
	top := q.keys[0]
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.down(0, last)
	}
	return top
}

// release frees slot i and returns its payload, clearing the slot so
// the table never pins a fired event's target or argument.
func (q *queue) release(i uint32) slot {
	s := q.slots[i]
	q.slots[i] = slot{}
	q.free = append(q.free, i)
	return s
}

// filter drops every queued event whose payload keep rejects, then
// restores the heap in O(n).
func (q *queue) filter(keep func(*slot) bool) {
	live := q.keys[:0]
	for _, k := range q.keys {
		if keep(&q.slots[k.slot]) {
			live = append(live, k)
		} else {
			q.release(k.slot)
		}
	}
	q.keys = live
	if n := len(live); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			q.down(i, live[i])
		}
	}
}

// up sifts the key at i toward the root.
func (q *queue) up(i int) {
	h := q.keys
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down places x at hole i and sifts it toward the leaves.
func (q *queue) down(i int, x key) {
	h := q.keys
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
