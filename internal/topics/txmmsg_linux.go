//go:build linux && (amd64 || arm64)

package topics

import (
	"syscall"
	"unsafe"
)

// Mixed-destination burst transmit via sendmmsg(2): one syscall ships a
// whole drained batch of datagrams, each to its own destination, straight
// from the syscall package — no cgo. Anything unusual (IPv6 peer, kernel
// without the syscall, raw-conn failure) falls back to one write per
// datagram.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-written datagram length. Go's natural alignment reproduces the
// kernel's padding on every linux target.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// sendmmsgRaw is the raw burst syscall behind one seam, so the
// runtime-fallback test can make a kernel that built the burst path refuse
// it afterwards (ENOSYS). Replaced only in tests, before any member starts.
var sendmmsgRaw = func(fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
	r, _, errno := syscall.Syscall6(sysSENDMMSG, fd, uintptr(unsafe.Pointer(hdrs)), uintptr(n), 0, 0, 0)
	return r, errno
}

// txBurst ships one mixed batch per sendmmsg. Owned by the shared sender
// goroutine; no locking.
type txBurst struct {
	rc       syscall.RawConn
	sas      []syscall.RawSockaddrInet4 // per-peer, precomputed
	hdrs     [txBurstMax]mmsghdr
	iovs     [txBurstMax]syscall.Iovec
	disabled bool // kernel refused sendmmsg: classic path from now on
}

// newTxBurst returns nil when the burst path cannot be used, which the
// sender treats as "one WriteToUDP per datagram".
func newTxBurst(u *udpBackend) *txBurst {
	rc, err := u.conn.SyscallConn()
	if err != nil {
		return nil
	}
	sas := make([]syscall.RawSockaddrInet4, len(u.peers))
	for i, a := range u.peers {
		ip4 := a.IP.To4()
		if ip4 == nil {
			return nil // IPv6 peer: classic path
		}
		p := uint16(a.Port)
		// sin_port is network byte order read as a native uint16.
		sas[i] = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: p<<8 | p>>8}
		copy(sas[i].Addr[:], ip4)
	}
	return &txBurst{rc: rc, sas: sas}
}

// send ships the whole batch (each datagram to its own destination) in as
// few sendmmsg calls as possible, with full accounting. It reports false
// when the caller should write per-datagram instead (nil burst, batch of
// one, or sendmmsg unsupported).
func (b *txBurst) send(m *MultiNode, batch []txPacket) bool {
	if b == nil || b.disabled || len(batch) < 2 {
		return false
	}
	bytes := 0
	for i, p := range batch {
		frame := p.f.buf
		bytes += len(frame)
		b.iovs[i].Base = &frame[0]
		b.iovs[i].SetLen(len(frame))
		b.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.sas[p.dst])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &b.iovs[i],
			Iovlen:  1,
		}}
	}
	sent, errs, fellBack := 0, 0, false
	werr := b.rc.Write(func(fd uintptr) bool {
		for sent < len(batch) {
			r, errno := sendmmsgRaw(fd, &b.hdrs[sent], len(batch)-sent)
			switch errno {
			case 0:
				sent += int(r)
			case syscall.EAGAIN:
				return false // wait for writability, then resume
			case syscall.EINTR:
				continue
			case syscall.ENOSYS, syscall.EOPNOTSUPP:
				if sent == 0 {
					b.disabled = true
					fellBack = true // nothing left the socket yet
					return true
				}
				errs = len(batch) - sent
				return true
			default:
				// Loss is an omission the protocol repairs; count the rest.
				errs = len(batch) - sent
				return true
			}
		}
		return true
	})
	if fellBack {
		return false
	}
	if werr != nil {
		errs = len(batch) - sent // raw-conn failure (e.g. closing socket)
	}
	if m.mobs != nil {
		m.mobs.txDatagrams.Add(int64(sent))
		m.mobs.txBytes.Add(int64(bytes))
		m.mobs.txErrors.Add(int64(errs))
	}
	return true
}
