package capture

import (
	"bytes"
	"sync"
	"testing"

	"urcgc/internal/causal"
	"urcgc/internal/fault"
	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

func dataFrame(t *testing.T, id mid.MID) []byte {
	t.Helper()
	buf, err := wire.MarshalAppend(nil, &wire.Data{Msg: causal.Message{ID: id, Payload: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRingRoundTrip(t *testing.T) {
	r := New(Options{Node: 2, N: 5, K: 4, R: 8, SelfExclusion: true})
	f := dataFrame(t, mid.MID{Proc: 1, Seq: 7})
	seq0 := r.Record(DirIngress, 0, 1, Delivered, 0, f)
	seq1 := r.Record(DirEgress, 3, mid.None, Sent, 0, f)
	r.Record(DirIngress, 0, 4, FaultDrop, fault.KindSet(0).With(fault.KindPartition), f)
	r.Mark(Crash, fault.KindSet(0).With(fault.KindCrash))
	if seq0 != 0 || seq1 != 1 {
		t.Fatalf("seqs %d,%d, want 0,1", seq0, seq1)
	}

	var buf bytes.Buffer
	if err := r.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Node != 2 || d.N != 5 || d.K != 4 || d.R != 8 || !d.SelfExclusion {
		t.Fatalf("header %+v", d)
	}
	if len(d.Records) != 4 {
		t.Fatalf("%d records, want 4", len(d.Records))
	}
	in := d.Records[0]
	if in.Dir != DirIngress || in.Verdict != Delivered || in.Peer != 1 || !bytes.Equal(in.Frame, f) {
		t.Fatalf("record 0: %+v", in)
	}
	if d.Records[1].Group != 3 || d.Records[1].Peer != mid.None {
		t.Fatalf("record 1: %+v", d.Records[1])
	}
	if !d.Records[2].Fault.Has(fault.KindPartition) {
		t.Fatalf("record 2 fault: %v", d.Records[2].Fault)
	}
	mark := d.Records[3]
	if mark.Dir != DirMark || mark.Verdict != Crash || len(mark.Frame) != 0 {
		t.Fatalf("record 3: %+v", mark)
	}
	info := Summarize(in.Frame)
	if info.Kind != "DATA" || len(info.MIDs) != 1 || info.MIDs[0] != (mid.MID{Proc: 1, Seq: 7}).String() {
		t.Fatalf("summary %+v", info)
	}
}

func TestRingEviction(t *testing.T) {
	r := New(Options{Node: 0, N: 3, K: 2, R: 4, MaxFrames: 4})
	f := dataFrame(t, mid.MID{Proc: 0, Seq: 1})
	for i := 0; i < 10; i++ {
		r.Record(DirIngress, 0, 1, Delivered, 0, f)
	}
	d := r.Snapshot()
	if len(d.Records) != 4 {
		t.Fatalf("%d records retained, want 4", len(d.Records))
	}
	if d.Evicted != 6 {
		t.Fatalf("evicted %d, want 6", d.Evicted)
	}
	if d.Records[0].Seq != 6 || d.Records[3].Seq != 9 {
		t.Fatalf("retained seqs %d..%d, want 6..9", d.Records[0].Seq, d.Records[3].Seq)
	}
}

func TestRingByteBudget(t *testing.T) {
	r := New(Options{Node: 0, N: 3, K: 2, R: 4, MaxFrames: 1024, MaxBytes: 64})
	frame := make([]byte, 30)
	for i := 0; i < 8; i++ {
		r.Record(DirIngress, 0, 1, Delivered, 0, frame)
	}
	d := r.Snapshot()
	if len(d.Records) != 2 {
		t.Fatalf("%d records retained under the byte budget, want 2", len(d.Records))
	}
	if d.EvictedBytes != 6*30 {
		t.Fatalf("evicted bytes %d, want %d", d.EvictedBytes, 6*30)
	}
}

// TestDisabledRingAllocFree pins the disabled recorder's cost at zero: a
// nil *Ring must not allocate on the hot path, the same budget the obs and
// lifecycle layers honor.
func TestDisabledRingAllocFree(t *testing.T) {
	var r *Ring
	frame := dataFrame(t, mid.MID{Proc: 0, Seq: 1})
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(DirIngress, 0, 1, Delivered, 0, frame)
		r.Mark(Crash, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled capture path allocates %.1f/op, want 0", allocs)
	}
}

// TestConcurrentRecordSnapshot hammers the ring from writers while a reader
// snapshots and encodes — run under -race this pins the locking discipline.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New(Options{Node: 1, N: 3, K: 2, R: 4, MaxFrames: 64})
	f := dataFrame(t, mid.MID{Proc: 2, Seq: 3})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Record(DirIngress, 0, 2, Delivered, 0, f)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.Snapshot().Encode(&buf); err != nil {
			t.Error(err)
			break
		}
		if _, err := Decode(&buf); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a capture dump at all........."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	r := New(Options{Node: 0, N: 3, K: 2, R: 4})
	r.Record(DirIngress, 0, 1, Delivered, 0, []byte("abc"))
	if err := r.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated dump accepted")
	}
}
