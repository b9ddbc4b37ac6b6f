package topics

import (
	"fmt"
	"net"
	"time"

	"urcgc/internal/mid"
)

// udpBackend is a member's real network: one socket shared by every hosted
// group, one reader demultiplexing it, one free-running round clock, and
// one sender coalescing every group's datagrams into burst syscalls.
type udpBackend struct {
	conn  *net.UDPConn
	peers []*net.UDPAddr
	tx    *txSender
}

// NewMultiNode binds the member's socket and prepares every group's
// protocol entity — the paper's prototype deployment over a LAN. Rounds
// are driven by the member's local clock; drift and reordering surface as
// omissions, which the protocol repairs from history. Start launches the
// runtime; Stop halts it.
func NewMultiNode(cfg Config) (*MultiNode, error) {
	cfg.fill(false)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("topics: %d peers for group of %d", len(cfg.Peers), cfg.N)
	}
	if cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("topics: self %d outside group", cfg.Self)
	}
	u := &udpBackend{peers: make([]*net.UDPAddr, cfg.N)}
	for i, p := range cfg.Peers {
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			return nil, fmt.Errorf("topics: peer %d %q: %w", i, p, err)
		}
		u.peers[i] = addr
	}
	m, err := newMultiNode(cfg, nil)
	if err != nil {
		return nil, err
	}
	if u.conn, err = net.ListenUDP("udp", u.peers[cfg.Self]); err != nil {
		return nil, fmt.Errorf("topics: bind %q: %w", cfg.Peers[cfg.Self], err)
	}
	u.tx = newTxSender(m, u)
	m.udp, m.link = u, u.tx
	return m, nil
}

// LocalAddr returns the bound UDP address (useful with port 0 in tests),
// or nil on a mesh member or when the address is unavailable.
func (m *MultiNode) LocalAddr() *net.UDPAddr {
	if m.udp == nil {
		return nil
	}
	addr, _ := m.udp.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

func (u *udpBackend) start(m *MultiNode) {
	m.wg.Add(3)
	go func() { defer m.wg.Done(); m.reader() }()
	go func() { defer m.wg.Done(); m.clock() }()
	go func() { defer m.wg.Done(); u.tx.loop() }()
}

// clock drives every group's rounds off one free-running ticker, numbering
// them by elapsed time (roundNumbers), so a tick the ticker drops skips its
// round instead of leaving this member's subruns out of step with its
// peers for good. A fail-stopped member stops ticking; a full inbox skips
// that group's tick — an overload omission the protocol repairs. Both
// kinds of skipped round count in topics_ticks_skipped_total.
func (m *MultiNode) clock() {
	t := time.NewTicker(m.cfg.RoundDuration)
	defer t.Stop()
	rounds := newRoundNumbers(time.Now(), m.cfg.RoundDuration)
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
		}
		if m.crashCheck(); m.Killed() {
			continue
		}
		r, skipped := rounds.next(time.Now())
		if skipped > 0 {
			for _, s := range m.sessions {
				m.countSkipped(s, skipped)
			}
			m.warnf("round clock fell behind: %d rounds skipped before round %d", skipped, r)
		}
		for _, s := range m.sessions {
			s := s
			s.obs.SampleInbox(len(m.inbox))
			if !m.enqueue(s, func() { s.tick(r) }) {
				m.countSkipped(s, 1)
				m.warnf("group %d round tick %d skipped: inbox full (overload omission)", s.group, r)
			}
		}
	}
}

// countSkipped charges k skipped rounds to one group and to the shared
// counter, which therefore sums every group's.
func (m *MultiNode) countSkipped(s *session, k int) {
	if m.mobs != nil {
		m.mobs.ticksSkipped.Add(int64(k))
	}
	if s.gobs != nil {
		s.gobs.ticksSkipped.Add(int64(k))
	}
}

// roundNumbers numbers a free-running clock's ticks by the time they are
// handled: round r is due at start + (r+1)·period, the ticker's (r+1)-th
// tick, and a tick handled at now starts round ⌊(now−start)/period⌋−1. A
// dropped or late tick therefore skips round numbers rather than shifting
// every later round, and no number repeats. The protocol already absorbs
// such gaps, as it absorbs a tick skipped on a full inbox.
type roundNumbers struct {
	start  time.Time
	period time.Duration
	last   int
}

func newRoundNumbers(start time.Time, period time.Duration) *roundNumbers {
	return &roundNumbers{start: start, period: period, last: -1}
}

// next numbers the round a tick handled at now starts, and reports how
// many numbers it skipped past the previous round.
func (n *roundNumbers) next(now time.Time) (r, skipped int) {
	r = int(now.Sub(n.start)/n.period) - 1
	if r <= n.last {
		r = n.last + 1
	}
	skipped = r - n.last - 1
	n.last = r
	return r, skipped
}

// reader is the single demultiplexing receiver: it owns the receive buffer
// for the whole member and never lets it cross a goroutine boundary.
func (m *MultiNode) reader() {
	// One byte of slack past maxDatagram distinguishes an exactly-full
	// datagram from one the kernel truncated to fit the buffer.
	buf := make([]byte, maxDatagram+1)
	for {
		sz, _, err := m.udp.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-m.stopCh:
				return
			default:
				if m.mobs != nil {
					m.mobs.dropReadErr.Inc()
				}
				m.warnf("socket read error (datagram lost): %v", err)
				continue
			}
		}
		m.demux(buf[:sz])
	}
}

// txPacket is one outgoing datagram in the shared sender's queue, holding
// one reference on its frame.
type txPacket struct {
	dst mid.ProcID
	f   *sharedFrame
}

// txBurstMax is how many queued datagrams one sendmmsg may carry. It also
// bounds how much the shared sender drains per wakeup on the fallback path.
const txBurstMax = 16

// txSender is the shared outgoing path and the UDP backend's link: the
// protocol loop feeds it every group's framed datagrams through one bounded queue,
// and it ships them in mixed-group, mixed-destination sendmmsg bursts
// (single writes where the platform or kernel lacks the syscall). A full
// queue drops the datagram — an omission the protocol repairs — so the
// protocol loop never blocks on the socket.
type txSender struct {
	m     *MultiNode
	u     *udpBackend
	ch    chan txPacket
	burst *txBurst // nil where sendmmsg is unavailable
	batch []txPacket
}

func newTxSender(m *MultiNode, u *udpBackend) *txSender {
	return &txSender{
		m:     m,
		u:     u,
		ch:    make(chan txPacket, m.cfg.TxDepth),
		burst: newTxBurst(u),
		batch: make([]txPacket, 0, txBurstMax),
	}
}

// send queues one datagram. Never blocks: a full queue drops the datagram
// and gives its reference back.
func (t *txSender) send(dst mid.ProcID, f *sharedFrame) {
	f.refs.Add(1)
	select {
	case t.ch <- txPacket{dst: dst, f: f}:
	default:
		f.release()
		if t.m.mobs != nil {
			t.m.mobs.txDropped.Inc()
		}
	}
}

func (t *txSender) loop() {
	for {
		var p txPacket
		select {
		case <-t.m.stopCh:
			t.drain()
			return
		case p = <-t.ch:
		}
		t.batch = append(t.batch[:0], p)
	fill:
		for len(t.batch) < txBurstMax {
			select {
			case q := <-t.ch:
				t.batch = append(t.batch, q)
			default:
				break fill
			}
		}
		t.ship(t.batch)
	}
}

// ship writes one drained batch: a multi-destination sendmmsg burst when
// available, per-datagram writes otherwise. References release afterwards.
func (t *txSender) ship(batch []txPacket) {
	if !t.burst.send(t.m, batch) {
		for _, p := range batch {
			t.writeOne(p.dst, p.f.buf)
		}
	} else if t.m.mobs != nil {
		t.m.mobs.txBursts.Inc()
	}
	for _, p := range batch {
		p.f.release()
	}
}

// drain releases whatever was still queued at shutdown.
func (t *txSender) drain() {
	for {
		select {
		case p := <-t.ch:
			p.f.release()
		default:
			return
		}
	}
}

// writeOne ships one datagram with a classic write and accounts for it.
func (t *txSender) writeOne(dst mid.ProcID, frame []byte) {
	mobs := t.m.mobs
	if _, err := t.u.conn.WriteToUDP(frame, t.u.peers[dst]); err != nil {
		// Loss is an omission the protocol repairs; count it anyway.
		if mobs != nil {
			mobs.txErrors.Inc()
		}
		return
	}
	if mobs != nil {
		mobs.txDatagrams.Inc()
		mobs.txBytes.Add(int64(len(frame)))
	}
}
