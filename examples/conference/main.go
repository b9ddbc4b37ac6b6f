// Conference: causal floor control with a crash mid-session — the paper's
// headline property on display: the group keeps processing while the
// embedded decision mechanism detects the crash and removes the member, no
// blocking view-change protocol anywhere.
//
//	go run ./examples/conference
//
// Six participants hold a discussion; a remark is always labelled as
// causally dependent on the remark it answers, so every participant hears
// an answer only after the question. Midway, one participant's machine
// fail-stops. The survivors keep talking (throughput never pauses), the
// rotating coordinators declare the crash after K silent subruns, and every
// surviving view converges on the five-member group.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
)

const participants = 6

func main() {
	cluster, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: participants, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Participant 0 opens the discussion.
	opening, err := cluster.Node(0).Send(ctx, 0, []byte("opening: shall we adopt causal order?"), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("participant 0 opened with %v\n", opening.String())

	// Everyone answers what they last heard: a causal chain of remarks.
	var mu sync.Mutex
	lastRemark := opening
	remark := func(who int, text string) {
		mu.Lock()
		dep := lastRemark
		mu.Unlock()
		var deps mid.DepList
		if dep.Proc != mid.ProcID(who) {
			deps = mid.DepList{dep}
		}
		id, err := cluster.Node(mid.ProcID(who)).Send(ctx, 0, []byte(text), deps)
		if err != nil {
			fmt.Printf("participant %d could not speak: %v\n", who, err)
			return
		}
		mu.Lock()
		lastRemark = id
		mu.Unlock()
		fmt.Printf("participant %d said %v answering %v\n", who, id, dep)
	}

	// First half of the discussion.
	for turn := 0; turn < 8; turn++ {
		remark(1+turn%(participants-1), fmt.Sprintf("remark %d", turn))
	}

	// Participant 5's machine dies. Nothing blocks.
	fmt.Println("\n*** participant 5 fail-stops ***")
	cluster.Node(5).Kill()
	crashAt := time.Now()

	// The discussion continues at full rate while detection runs.
	for turn := 8; turn < 20; turn++ {
		remark(1+turn%(participants-2), fmt.Sprintf("remark %d", turn))
	}

	// Wait for every survivor's view to exclude participant 5.
	for {
		excluded := 0
		for i := 0; i < participants-1; i++ {
			sctx, scancel := context.WithTimeout(ctx, 2*time.Second)
			st, err := cluster.Node(mid.ProcID(i)).Status(sctx)
			scancel()
			if err == nil && !st.Alive[5] {
				excluded++
			}
		}
		if excluded == participants-1 {
			break
		}
		select {
		case <-ctx.Done():
			log.Fatal("views never converged")
		case <-time.After(2 * time.Millisecond):
		}
	}
	fmt.Printf("\nall survivors excluded participant 5 %.0fms after the crash\n",
		float64(time.Since(crashAt).Milliseconds()))
	fmt.Println("the discussion never paused: remarks 8..19 were confirmed during detection")

	// Show one survivor's final knowledge. Status is the supported way to
	// read a live member from outside its loop goroutine: the sample is
	// taken inside the loop and cloned, so no raw accessor races.
	if st, err := cluster.Node(0).Status(ctx); err == nil {
		fmt.Printf("participant 0: processed %d remarks, view %v, history %d (cleaned by stability)\n",
			st.Processed.Sum(), st.Alive, st.HistoryLen)
	}
}
