package stack

import (
	"context"
	"testing"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
)

func newGroup(t *testing.T, n int) (*topics.MultiCluster, []*SAP) {
	t.Helper()
	c, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	saps := make([]*SAP, n)
	for i := 0; i < n; i++ {
		if saps[i], err = Open(c.Node(mid.ProcID(i)), 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(saps[i].Close)
	}
	return c, saps
}

func TestRqConfInd(t *testing.T) {
	_, saps := newGroup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	conf, err := saps[0].DataRq(ctx, []byte("hello"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if conf.MID != (mid.MID{Proc: 0, Seq: 1}) {
		t.Errorf("MID = %v", conf.MID)
	}
	// Every other SAP gets the indication.
	for i := 1; i < 3; i++ {
		select {
		case ind := <-saps[i].DataInd():
			if ind.Msg.ID != conf.MID || string(ind.Msg.Payload) != "hello" {
				t.Errorf("SAP %d got %v %q", i, ind.Msg.ID, ind.Msg.Payload)
			}
		case <-ctx.Done():
			t.Fatalf("SAP %d never indicated", i)
		}
	}
}

func TestCausalChainAcrossSAPs(t *testing.T) {
	_, saps := newGroup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	a, err := saps[0].DataRq(ctx, []byte("question"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// SAP 1 waits for the question, then answers with an explicit causal
	// dependency on it — the paper's application-specified causality.
	select {
	case ind := <-saps[1].DataInd():
		if ind.Msg.ID != a.MID {
			t.Fatalf("unexpected indication %v", ind.Msg.ID)
		}
	case <-ctx.Done():
		t.Fatal("question never arrived")
	}
	b, err := saps[1].DataRq(ctx, []byte("answer"), mid.DepList{a.MID})
	if err != nil {
		t.Fatal(err)
	}
	// SAP 2 must observe question before answer.
	var order []mid.MID
	for len(order) < 2 {
		select {
		case ind := <-saps[2].DataInd():
			order = append(order, ind.Msg.ID)
		case <-ctx.Done():
			t.Fatal("SAP 2 starved")
		}
	}
	if order[0] != a.MID || order[1] != b.MID {
		t.Errorf("order = %v, want [%v %v]", order, a.MID, b.MID)
	}
}

func TestDataRqCausal(t *testing.T) {
	_, saps := newGroup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := saps[0].DataRq(ctx, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	// Wait for SAP 1 to see it so the causal labelling has something to
	// point at.
	select {
	case <-saps[1].DataInd():
	case <-ctx.Done():
		t.Fatal("starved")
	}
	conf, err := saps[1].DataRqCausal(ctx, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if conf.MID != (mid.MID{Proc: 1, Seq: 1}) {
		t.Errorf("MID = %v", conf.MID)
	}
}

func TestMember(t *testing.T) {
	_, saps := newGroup(t, 2)
	if saps[1].Member() != 1 {
		t.Errorf("Member = %d", saps[1].Member())
	}
}
