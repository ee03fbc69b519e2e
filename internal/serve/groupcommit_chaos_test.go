// Group-commit write-ahead chaos: concurrent clients hammer a durable
// server whose driver batches their submits under one fsync per group,
// and the daemon is SIGKILLed mid-traffic. The invariant under test is
// the write-ahead contract as restated for group commit: a reply is
// released only after the fsync covering its records returned, so no
// client may ever hold an OK submit reply whose job the restarted
// incarnation does not remember. The opposite direction — journaled but
// never acked — is allowed and expected (the kill can land between the
// sync and the reply write); req_id dedupe exists for exactly that
// window.
package serve

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"rotary/internal/invariants"
	"rotary/internal/sim"
)

func TestGroupCommitKillRestartChaos(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRand(seed ^ 0x6c0de)
			killAfter := time.Duration(2+rng.IntN(30)) * time.Millisecond

			d := newDaemon(t, daemon{durable: true})
			d.start(t)
			epoch := dial(t, d.socket).call(t, Message{Op: "resume"}).ServerEpoch

			const workers = 8
			var mu sync.Mutex
			acked := make(map[string]string) // job id -> req_id
			firstAck := make(chan struct{})
			var once sync.Once
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl, err := NewClient(ClientConfig{
						Socket:   d.socket,
						Attempts: 1, // fail fast once the daemon dies
						Backoff:  time.Millisecond,
					})
					if err != nil {
						t.Errorf("worker %d: NewClient: %v", w, err)
						return
					}
					defer cl.Close()
					for i := 0; ; i++ {
						reqID := fmt.Sprintf("req-s%d-w%d-%d", seed, w, i)
						resp, err := cl.Do(Message{Op: "submit", ReqID: reqID,
							Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
						if err != nil || !resp.OK {
							return // the kill (or its drain shadow) ended this worker
						}
						mu.Lock()
						acked[resp.ID] = reqID
						mu.Unlock()
						once.Do(func() { close(firstAck) })
					}
				}(w)
			}

			// The seeded delay runs from the first ack, so every seed kills
			// with acked submits behind it and traffic still in flight.
			select {
			case <-firstAck:
			case <-time.After(10 * time.Second):
				t.Fatal("no submit acked within 10s")
			}
			time.Sleep(killAfter)
			d.kill()
			wg.Wait()

			// Restart over the same state dir: every acked reply's job must
			// have survived in the journal — the fsync its reply waited on —
			// exactly once, under a newer server epoch.
			c := d.restart(t)
			kept := d.journalIDs()
			if lost := invariants.Lost(slices.Collect(maps.Keys(acked)), kept); len(lost) > 0 {
				t.Fatalf("seed %d: %d acked jobs missing from the restarted journal: %v", seed, len(lost), lost)
			}
			if dups := invariants.Duplicates(kept); len(dups) > 0 {
				t.Fatalf("seed %d: restarted journal holds duplicate job ids %v", seed, dups)
			}
			if err := invariants.EpochsIncrease([]int{epoch, c.call(t, Message{Op: "resume"}).ServerEpoch}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for id, reqID := range acked {
				st := c.call(t, Message{Op: "status", ID: id})
				if !st.OK {
					t.Fatalf("seed %d: job %s was acked before the kill but the restarted daemon does not know it: %+v",
						seed, id, st)
				}
				// The req_id dedupe index must have recovered too: a client
				// retrying its acked submit gets the same job back, not a
				// duplicate.
				re := c.call(t, Message{Op: "submit", ReqID: reqID,
					Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
				if !re.OK || re.Code != CodeDuplicateRequest || re.ID != id {
					t.Fatalf("seed %d: resubmit of acked req %s: %+v, want dedupe to job %s", seed, reqID, re, id)
				}
			}
			c.drain(t)
			d.wg.Wait()
			t.Logf("seed %d: %d acked submits all recovered (killAfter=%v)", seed, len(acked), killAfter)
		})
	}
}
