//go:build !linux || (!amd64 && !arm64)

package topics

// txBurst is unavailable off linux/amd64 and linux/arm64; the shared
// sender writes one datagram per syscall instead.
type txBurst struct{}

func newTxBurst(u *udpBackend) *txBurst { return nil }

func (b *txBurst) send(m *MultiNode, batch []txPacket) bool { return false }
