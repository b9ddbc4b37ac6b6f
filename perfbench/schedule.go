package main

import (
	"encoding/binary"
	"math/rand"
	"time"
)

// A send is one generated operation: which member sends on which group,
// when it is due, how large its payload is and whether it declares a
// dependency on another member's recent message. The program sees only
// the resulting Send/Submit calls; the seed never crosses into it.
type send struct {
	Due     time.Duration // offset from the start of the generator
	Member  int
	Group   int
	Size    int
	WantDep bool
	// DepFrom picks which other member the dependency names, as an
	// offset in [1, n) from Member, so the choice is seeded too.
	DepFrom int
}

// liveParams shapes the open-loop send stream of a live workload.
type liveParams struct {
	N, Groups  int
	Rate       float64 // offered messages per second
	Payload    int     // common payload size in bytes
	BigPayload int     // size of the occasional large payload
	BigOneIn   int     // one send in BigOneIn is large; 0 disables
	DepOneIn   int     // one send in DepOneIn declares a dependency
}

// sendStream yields an open-loop schedule with exponential inter-arrival
// times. It is a pure function of its seed and parameters: two streams
// built alike yield the same sends in the same order.
type sendStream struct {
	p   liveParams
	rng *rand.Rand
	at  float64 // seconds since start
}

func newSendStream(seed int64, p liveParams) *sendStream {
	return &sendStream{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the following send of the schedule.
func (s *sendStream) Next() send {
	s.at += s.rng.ExpFloat64() / s.p.Rate
	out := send{
		Due:    time.Duration(s.at * 1e9),
		Member: s.rng.Intn(s.p.N),
		Group:  s.rng.Intn(s.p.Groups),
		Size:   s.p.Payload,
	}
	if s.p.BigOneIn > 0 && s.rng.Intn(s.p.BigOneIn) == 0 {
		out.Size = s.p.BigPayload
	}
	if s.p.DepOneIn > 0 && s.rng.Intn(s.p.DepOneIn) == 0 {
		out.WantDep = true
	}
	if s.p.N > 1 {
		out.DepFrom = 1 + s.rng.Intn(s.p.N-1)
	}
	return out
}

// payloadHeader is the size of the index every generated payload starts
// with; the rest is a pattern derived from that index, so every delivered
// copy can be checked byte for byte.
const payloadHeader = 8

// makePayload builds the payload of message idx with the given size.
func makePayload(idx uint64, size int) []byte {
	if size < payloadHeader {
		size = payloadHeader
	}
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, idx)
	fillPattern(b[payloadHeader:], idx)
	return b
}

func fillPattern(b []byte, idx uint64) {
	x := byte(idx*131 + 7)
	for i := range b {
		b[i] = x + byte(i)
	}
}

// checkPayload returns the index carried by b and whether the rest of b is
// exactly the pattern makePayload wrote for that index and size.
func checkPayload(b []byte, size int) (uint64, bool) {
	if len(b) < payloadHeader {
		return 0, false
	}
	idx := binary.LittleEndian.Uint64(b)
	if size >= 0 && len(b) != max(size, payloadHeader) {
		return idx, false
	}
	x := byte(idx*131 + 7)
	for i, v := range b[payloadHeader:] {
		if v != x+byte(i) {
			return idx, false
		}
	}
	return idx, true
}

// syncSchedule decides, for the synchronous core workload, the sends each
// member makes in each subrun. It is a pure function of the seed.
type syncSchedule struct {
	rng *rand.Rand
	p   syncParams
}

func newSyncSchedule(seed int64, p syncParams) *syncSchedule {
	return &syncSchedule{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Subrun returns one member's sends for one subrun.
func (s *syncSchedule) Subrun(member int) []send {
	out := make([]send, s.p.PerSubrun)
	for k := range out {
		out[k] = send{
			Member:  member,
			Size:    s.p.Payload,
			WantDep: s.rng.Intn(s.p.DepOneIn) == 0,
			DepFrom: 1 + s.rng.Intn(s.p.N-1),
		}
	}
	return out
}

// dropper decides frame drops from its own seeded stream, consulted once
// per data frame per recipient, so the drop pattern is a pure function of
// the seed and the (deterministic) delivery order.
type dropper struct {
	rng   *rand.Rand
	oneIn int
}

func newDropper(seed int64, oneIn int) *dropper {
	return &dropper{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), oneIn: oneIn}
}

func (d *dropper) drop() bool {
	return d.oneIn > 0 && d.rng.Intn(d.oneIn) == 0
}
