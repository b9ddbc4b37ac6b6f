// Quickstart: a five-member urcgc group exchanging causally related
// messages through the Section 5 service primitives.
//
//	go run ./examples/quickstart
//
// Member 0 asks a question; every member that sees it replies with a
// message explicitly labelled as causally dependent on the question
// (Definition 3.1's application-specified causality). The protocol
// guarantees each member processes the question before any reply, while
// the replies themselves — mutually concurrent — may interleave freely.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/stack"
	"urcgc/internal/topics"
)

func main() {
	const n = 5
	cluster, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: n, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	saps := make([]*stack.SAP, n)
	for i := range saps {
		if saps[i], err = stack.Open(cluster.Node(mid.ProcID(i)), 0); err != nil {
			log.Fatal(err)
		}
		defer saps[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Member 0 asks; the Confirm returns once the local entity processed it.
	question, err := saps[0].DataRq(ctx, []byte("what is the plan?"), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("member 0 asked %v\n", question.MID)

	// Members 1..4 reply once they have seen the question, labelling the
	// reply as causally dependent on it.
	for i := 1; i < n; i++ {
		i := i
		go func() {
			for ind := range saps[i].DataInd() {
				if ind.Msg.ID != question.MID {
					continue
				}
				conf, err := saps[i].DataRq(ctx,
					[]byte(fmt.Sprintf("member %d: sounds good", i)),
					mid.DepList{question.MID})
				if err != nil {
					log.Printf("member %d reply failed: %v", i, err)
					return
				}
				fmt.Printf("member %d replied %v (depends on %v)\n", i, conf.MID, question.MID)
				return
			}
		}()
	}

	// Member 0 collects everything: the question is processed first
	// everywhere; the four replies arrive in some interleaving.
	got := 0
	for got < n-1 {
		select {
		case ind := <-saps[0].DataInd():
			fmt.Printf("member 0 processed %v: %q (deps %v)\n", ind.Msg.ID, ind.Msg.Payload, ind.Msg.Deps)
			got++
		case <-ctx.Done():
			log.Fatal("timed out collecting replies")
		}
	}
	fmt.Println("all replies processed after their cause — causal order held")
}
