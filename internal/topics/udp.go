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

// clock drives every group's rounds off one free-running ticker. A
// fail-stopped member stops ticking; a full shard inbox skips that group's
// tick — an overload omission the protocol repairs.
func (m *MultiNode) clock() {
	t := time.NewTicker(m.cfg.RoundDuration)
	defer t.Stop()
	round := 0
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
		}
		if m.crashCheck(); m.Killed() {
			continue
		}
		r := round
		round++
		for _, s := range m.sessions {
			s := s
			s.obs.SampleInbox(len(s.shard.inbox))
			if !s.shard.enqueue(s, func() { s.tick(r) }) {
				if m.mobs != nil {
					m.mobs.ticksSkipped.Inc()
				}
				if s.gobs != nil {
					s.gobs.ticksSkipped.Inc()
				}
				m.warnf("group %d round tick %d skipped: shard inbox full (overload omission)", s.group, r)
			}
		}
	}
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

// txSender is the shared outgoing path and the UDP backend's link: every
// group's shard loops feed it framed datagrams through one bounded queue,
// and it ships them in mixed-group, mixed-destination sendmmsg bursts
// (single writes where the platform or kernel lacks the syscall). A full
// queue drops the datagram — an omission the protocol repairs — so shard
// loops never block on the socket.
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
