package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// The dump format is versioned and length-prefixed so a replayer from a
// later build can refuse (or adapt to) an older artifact instead of
// misparsing it:
//
//	magic "URCGCCAP" | version u16 | node i32 | n u16 | k u16 | r u16
//	| flags u8 (bit0 self-exclusion) | startWall unixnano i64
//	| evicted u64 | evictedBytes u64 | count u32
//	| count × { seq u64 | atns i64 | dir u8 | verdict u8 | fault u8
//	            | peer i32 | group u32 | frameLen u32 | frame bytes }
//
// All integers are little-endian.
const (
	// FormatVersion is the current dump format version.
	FormatVersion = 1
	headerSize    = 8 + 2 + 4 + 2 + 2 + 2 + 1 + 8 + 8 + 8 + 4
	recHeadSize   = 8 + 8 + 1 + 1 + 1 + 4 + 4 + 4
)

var magic = [8]byte{'U', 'R', 'C', 'G', 'C', 'C', 'A', 'P'}

// maxFrameLen rejects corrupt dumps claiming absurd frame sizes; it is the
// runtimes' shared datagram bound.
const maxFrameLen = 64 * 1024

// Dump is one member's decoded capture artifact.
type Dump struct {
	Version       int
	Node          mid.ProcID
	N, K, R       int
	SelfExclusion bool
	StartWall     time.Time
	Evicted       uint64
	EvictedBytes  uint64
	Records       []Record
}

// Encode writes the versioned binary dump.
func (d *Dump) Encode(w io.Writer) error {
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(FormatVersion))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(int32(d.Node)))
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(d.N))
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(d.K))
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(d.R))
	var flags byte
	if d.SelfExclusion {
		flags |= 1
	}
	hdr = append(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.StartWall.UnixNano()))
	hdr = binary.LittleEndian.AppendUint64(hdr, d.Evicted)
	hdr = binary.LittleEndian.AppendUint64(hdr, d.EvictedBytes)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.Records)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 0, recHeadSize+256)
	for i := range d.Records {
		rec := &d.Records[i]
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.AtNs))
		buf = append(buf, byte(rec.Dir), byte(rec.Verdict), byte(rec.Fault))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(rec.Peer)))
		buf = binary.LittleEndian.AppendUint32(buf, rec.Group)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Frame)))
		buf = append(buf, rec.Frame...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses one binary dump.
func Decode(r io.Reader) (*Dump, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("capture: short header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("capture: bad magic %q", hdr[:8])
	}
	version := int(binary.LittleEndian.Uint16(hdr[8:]))
	if version != FormatVersion {
		return nil, fmt.Errorf("capture: format version %d (this build reads %d)", version, FormatVersion)
	}
	d := &Dump{
		Version:       version,
		Node:          mid.ProcID(int32(binary.LittleEndian.Uint32(hdr[10:]))),
		N:             int(binary.LittleEndian.Uint16(hdr[14:])),
		K:             int(binary.LittleEndian.Uint16(hdr[16:])),
		R:             int(binary.LittleEndian.Uint16(hdr[18:])),
		SelfExclusion: hdr[20]&1 != 0,
		StartWall:     time.Unix(0, int64(binary.LittleEndian.Uint64(hdr[21:]))),
		Evicted:       binary.LittleEndian.Uint64(hdr[29:]),
		EvictedBytes:  binary.LittleEndian.Uint64(hdr[37:]),
	}
	count := binary.LittleEndian.Uint32(hdr[45:])
	d.Records = make([]Record, 0, count)
	rh := make([]byte, recHeadSize)
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, rh); err != nil {
			return nil, fmt.Errorf("capture: record %d: short head: %w", i, err)
		}
		rec := Record{
			Seq:     binary.LittleEndian.Uint64(rh),
			AtNs:    int64(binary.LittleEndian.Uint64(rh[8:])),
			Dir:     Dir(rh[16]),
			Verdict: Verdict(rh[17]),
			Fault:   fault.KindSet(rh[18]),
			Peer:    mid.ProcID(int32(binary.LittleEndian.Uint32(rh[19:]))),
			Group:   binary.LittleEndian.Uint32(rh[23:]),
		}
		flen := binary.LittleEndian.Uint32(rh[27:])
		if flen > maxFrameLen {
			return nil, fmt.Errorf("capture: record %d claims %d frame bytes (max %d)", i, flen, maxFrameLen)
		}
		if flen > 0 {
			rec.Frame = make([]byte, flen)
			if _, err := io.ReadFull(r, rec.Frame); err != nil {
				return nil, fmt.Errorf("capture: record %d: short frame: %w", i, err)
			}
		}
		d.Records = append(d.Records, rec)
	}
	return d, nil
}

// FrameInfo is a decoded summary of one stored frame body.
type FrameInfo struct {
	Kind   string   `json:"kind,omitempty"`
	MIDs   []string `json:"mids,omitempty"`
	Subrun int64    `json:"subrun,omitempty"`
	Note   string   `json:"note,omitempty"`
}

// Summarize decodes a stored frame body through the wire codec into a
// compact human summary: the PDU kind, the user-message MIDs it carries
// (Data/DataBatch/Retransmit), and the subrun for Request/Decision.
func Summarize(frame []byte) FrameInfo {
	if len(frame) == 0 {
		return FrameInfo{}
	}
	pdu, err := wire.Unmarshal(frame)
	if err != nil {
		return FrameInfo{Note: "undecodable: " + err.Error()}
	}
	info := FrameInfo{Kind: pdu.Kind().String()}
	for _, m := range FrameMIDs(pdu) {
		info.MIDs = append(info.MIDs, m.String())
	}
	switch p := pdu.(type) {
	case *wire.Request:
		info.Subrun = p.Subrun
	case *wire.Decision:
		info.Subrun = p.Subrun
	}
	return info
}

// FrameMIDs lists the user-message identifiers a PDU carries: one for
// Data, each batched message for DataBatch, each recovered message for
// Retransmit. Control PDUs carry none.
func FrameMIDs(pdu wire.PDU) []mid.MID {
	switch p := pdu.(type) {
	case *wire.Data:
		return []mid.MID{p.Msg.ID}
	case *wire.DataBatch:
		out := make([]mid.MID, len(p.Msgs))
		for i := range p.Msgs {
			out[i] = p.Msgs[i].ID
		}
		return out
	case *wire.Retransmit:
		out := make([]mid.MID, len(p.Msgs))
		for i, m := range p.Msgs {
			out[i] = m.ID
		}
		return out
	}
	return nil
}

// RecordView is the JSON shape of one record for /capture?decode=1.
type RecordView struct {
	Seq     uint64    `json:"seq"`
	At      string    `json:"at"`
	Dir     string    `json:"dir"`
	Verdict string    `json:"verdict"`
	Fault   string    `json:"fault,omitempty"`
	Peer    int32     `json:"peer"`
	Group   uint32    `json:"group"`
	Bytes   int       `json:"bytes"`
	Frame   FrameInfo `json:"frame"`
}

// DumpView is the JSON shape of a decoded dump.
type DumpView struct {
	Version       int          `json:"version"`
	Node          int32        `json:"node"`
	N             int          `json:"n"`
	K             int          `json:"k"`
	R             int          `json:"r"`
	SelfExclusion bool         `json:"self_exclusion"`
	StartWall     time.Time    `json:"start_wall"`
	Evicted       uint64       `json:"evicted"`
	EvictedBytes  uint64       `json:"evicted_bytes"`
	Records       []RecordView `json:"records"`
}

// View renders the dump for JSON exposition, decoding every frame body.
func (d *Dump) View() DumpView {
	v := DumpView{
		Version:       d.Version,
		Node:          int32(d.Node),
		N:             d.N,
		K:             d.K,
		R:             d.R,
		SelfExclusion: d.SelfExclusion,
		StartWall:     d.StartWall,
		Evicted:       d.Evicted,
		EvictedBytes:  d.EvictedBytes,
		Records:       make([]RecordView, 0, len(d.Records)),
	}
	for i := range d.Records {
		rec := &d.Records[i]
		rv := RecordView{
			Seq:     rec.Seq,
			At:      time.Duration(rec.AtNs).String(),
			Dir:     rec.Dir.String(),
			Verdict: rec.Verdict.String(),
			Peer:    int32(rec.Peer),
			Group:   rec.Group,
			Bytes:   len(rec.Frame),
			Frame:   Summarize(rec.Frame),
		}
		if rec.Fault != 0 {
			rv.Fault = rec.Fault.String()
		}
		v.Records = append(v.Records, rv)
	}
	return v
}
