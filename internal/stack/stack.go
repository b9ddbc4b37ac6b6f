// Package stack exposes the protocol architecture of Section 5: the urcgc
// service, accessed through user urcgc Service Access Points (SAPs), is
// fully described by the primitives urcgc-data.Rq, urcgc-data.Conf and
// urcgc-data.Ind. The user entity that issues a Request blocks until the
// local entity has processed the message (the Confirm); Indications are
// generated asynchronously as remote messages are delivered and processed.
//
// Underneath, the urcgc layer divides into the Group Control sublayer (the
// urcgc entity of internal/core, running the agreement protocol) and the
// Group Message Transfer sublayer (message processing, history storage and
// recovery — also in internal/core, with internal/transport supplying the
// t-SAP service when h > 1). This package is the thin, paper-faithful
// facade over those entities as embodied by the live runtime: one SAP per
// member per hosted group, as in the paper's one urcgc entity per member
// per group.
package stack

import (
	"context"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
)

// DataInd is the urcgc-data.Ind primitive: a message has been delivered and
// processed at this SAP's member, in causal order.
type DataInd struct {
	// Msg is the processed message: origin, causal labels, payload.
	Msg causal.Message
}

// DataConf is the urcgc-data.Conf primitive: the local entity has processed
// the requested message (which also means it was broadcast to the group).
type DataConf struct {
	// MID is the identifier the service assigned to the message.
	MID mid.MID
}

// SAP is one user's urcgc Service Access Point. In a peer group every user
// entity acts as both the client generating messages and the server
// processing them, so a single SAP carries both directions.
type SAP struct {
	node  *topics.MultiNode
	group uint32
	ind   chan DataInd
	stop  chan struct{}
}

// Open attaches a SAP to one hosted group of a live member and starts
// translating its indications. Close releases it.
func Open(node *topics.MultiNode, group uint32) (*SAP, error) {
	raw, err := node.Indications(group)
	if err != nil {
		return nil, err
	}
	s := &SAP{
		node:  node,
		group: group,
		ind:   make(chan DataInd, 1024),
		stop:  make(chan struct{}),
	}
	go s.pump(raw)
	return s, nil
}

func (s *SAP) pump(in <-chan topics.Indication) {
	for {
		select {
		case <-s.stop:
			return
		case raw := <-in:
			select {
			case s.ind <- DataInd{Msg: raw.Msg}:
			case <-s.stop:
				return
			}
		}
	}
}

// Close detaches the SAP. The member keeps running; only the indication
// translation stops.
func (s *SAP) Close() { close(s.stop) }

// Member returns the group member this SAP is attached to.
func (s *SAP) Member() mid.ProcID { return s.node.ID() }

// DataRq is the urcgc-data.Rq primitive: submit a message with the given
// explicit causal dependencies (messages this user has seen via DataInd, at
// most one per other sequence) and block until the Confirm. In the absence
// of failures the service processes one message a round — the maximum
// attainable service rate; failures slow the rate because messages wait for
// recovery from history of those they causally depend on.
func (s *SAP) DataRq(ctx context.Context, payload []byte, deps mid.DepList) (DataConf, error) {
	id, err := s.node.Send(ctx, s.group, payload, deps)
	if err != nil {
		return DataConf{}, err
	}
	return DataConf{MID: id}, nil
}

// DataRqCausal is DataRq with the conservative labelling: the message
// depends on the latest message processed from every other live sequence.
func (s *SAP) DataRqCausal(ctx context.Context, payload []byte) (DataConf, error) {
	id, err := s.node.SendCausal(ctx, s.group, payload)
	if err != nil {
		return DataConf{}, err
	}
	return DataConf{MID: id}, nil
}

// DataInd returns the indication stream.
func (s *SAP) DataInd() <-chan DataInd { return s.ind }
