// Whiteboard: the multimedia-space scenario that motivates the paper's
// intermediate interpretation of causality.
//
//	go run ./examples/whiteboard
//
// Four users draw on a shared board of named regions. An edit to a region
// is labelled as causally dependent on the last edit of that region the
// editor has seen — and on nothing else, so edits to different regions stay
// concurrent and are processed in parallel streams. Every replica applies
// edits in causal order; a region's value is the edit with the deepest
// causal chain (ties broken by MID), so concurrent edits resolve the same
// way everywhere and all replicas converge without a total-order protocol.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/topics"
)

const (
	users   = 4
	edits   = 6 // edits per user
	regions = 3
)

// edit is the payload: "region=value".
func editPayload(region int, value string) []byte {
	return []byte(fmt.Sprintf("r%d=%s", region, value))
}

// regEdit is an applied edit with its causal-chain depth within its region.
type regEdit struct {
	id    mid.MID
	depth int
	value string
}

// wins implements the deterministic conflict rule: deeper causal chain
// first, then the MID total order. Replicas applying the same edit set
// therefore always pick the same winner.
func (e regEdit) wins(o regEdit) bool {
	if e.depth != o.depth {
		return e.depth > o.depth
	}
	return o.id.Less(e.id)
}

// board is one replica's state: region -> winning edit, rebuilt from
// indications in causal order.
type board struct {
	mu      sync.Mutex
	winners map[string]regEdit
	depths  map[mid.MID]int // every applied edit's chain depth
	applied int
}

func (b *board) apply(m causal.Message) {
	parts := strings.SplitN(string(m.Payload), "=", 2)
	b.mu.Lock()
	defer b.mu.Unlock()
	depth := 1
	for _, d := range m.Deps {
		// Causal order guarantees the dependency was applied first.
		if dd, ok := b.depths[d]; ok && dd+1 > depth {
			depth = dd + 1
		}
	}
	b.depths[m.ID] = depth
	e := regEdit{id: m.ID, depth: depth, value: parts[1]}
	if cur, ok := b.winners[parts[0]]; !ok || e.wins(cur) {
		b.winners[parts[0]] = e
	}
	b.applied++
}

func (b *board) lastEditOf(region string) (mid.MID, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.winners[region]
	return e.id, ok
}

func (b *board) render() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.winners))
	for k := range b.winners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s ", k, b.winners[k].value)
	}
	return strings.TrimSpace(sb.String())
}

func main() {
	cluster, err := topics.NewMultiCluster(topics.Config{
		Config:        core.Config{N: users, K: 3, R: 8, SelfExclusion: true},
		RoundDuration: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	boards := make([]*board, users)
	for i := range boards {
		boards[i] = &board{winners: map[string]regEdit{}, depths: map[mid.MID]int{}}
	}
	// Apply every indication to the replica, in the causal order the
	// protocol hands them over.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < users; i++ {
		i := i
		inds, _ := cluster.Node(mid.ProcID(i)).Indications(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case ind := <-inds:
					boards[i].apply(ind.Msg)
				case <-stop:
					return
				}
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(7))

	// Users edit concurrently. Each edit depends on the last edit of ITS
	// region only — other regions' streams stay concurrent.
	var editors sync.WaitGroup
	for u := 0; u < users; u++ {
		u := u
		editors.Add(1)
		go func() {
			defer editors.Done()
			for e := 0; e < edits; e++ {
				region := rng.Intn(regions)
				dep, hasDep := boards[u].lastEditOf(fmt.Sprintf("r%d", region))
				var deps mid.DepList
				if hasDep && dep.Proc != mid.ProcID(u) {
					deps = mid.DepList{dep}
				}
				id, err := cluster.Node(mid.ProcID(u)).Send(ctx, 0,
					editPayload(region, fmt.Sprintf("u%de%d", u, e)), deps)
				if err != nil {
					log.Printf("user %d edit failed: %v", u, err)
					return
				}
				fmt.Printf("user %d edited region %d as %v (deps %v)\n", u, region, id, deps)
				time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
			}
		}()
	}
	editors.Wait()

	// Wait for every replica to have applied all edits.
	total := users * edits
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for i := range boards {
			boards[i].mu.Lock()
			n := boards[i].applied
			boards[i].mu.Unlock()
			if n < total {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	ref := boards[0].render()
	fmt.Printf("\nreplica 0: %s\n", ref)
	converged := true
	for i := 1; i < users; i++ {
		got := boards[i].render()
		fmt.Printf("replica %d: %s\n", i, got)
		if got != ref {
			converged = false
		}
	}
	if converged {
		fmt.Println("\nall replicas converged — causal chains plus a deterministic tiebreak were enough")
	} else {
		fmt.Println("\nreplicas DIVERGED — this would indicate a causal-order violation")
	}
}
