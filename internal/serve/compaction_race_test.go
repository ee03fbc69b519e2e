package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"

	"rotary/internal/invariants"
	"rotary/internal/sim"
)

// TestJournalCompactionRacingSubmits hammers a durable server with
// concurrent submitters and a stats/metrics poller while the journal's
// compaction floor is set low enough to fold the log several times
// mid-storm. Run under -race in CI. The property: compaction racing
// live appends loses nothing — every submit is journaled, and a
// post-kill replay recovers the full registry.
func TestJournalCompactionRacingSubmits(t *testing.T) {
	// The trigger is growth-relative (the tail must double the snapshot),
	// so compactions are logarithmic in the storm's bytes: a 256-byte
	// floor makes the doublings start early enough that ~7 folds race
	// the 48 submits.
	d := newDaemon(t, daemon{durable: true, compactBytes: 256})
	d.start(t)
	socket := d.socket

	const workers, per = 3, 16
	queries := []string{"q1", "q3", "q5", "q6"}
	// Statements are drawn from a seeded stream up front, so the workload
	// is reproducible even though goroutine interleaving is not.
	rng := sim.NewRand(97)
	stmts := make([][]string, workers)
	var ids []string
	for w := range stmts {
		for i := 0; i < per; i++ {
			stmts[w] = append(stmts[w], fmt.Sprintf("%s ACC MIN %.0f%% WITHIN 900 SECONDS",
				queries[rng.IntN(len(queries))], rng.Range(50, 70)))
			ids = append(ids, fmt.Sprintf("cr-%d-%d", w, i))
		}
	}

	// roundTrip is goroutine-safe test plumbing: errors are returned, not
	// Fatal'd (FailNow must stay on the test goroutine).
	roundTrip := func(sc *bufio.Scanner, enc *json.Encoder, m Message) (Response, error) {
		if err := enc.Encode(m); err != nil {
			return Response{}, err
		}
		if !sc.Scan() {
			return Response{}, fmt.Errorf("no reply: %v", sc.Err())
		}
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			return Response{}, err
		}
		return resp, nil
	}
	errc := make(chan error, workers+1)
	var race sync.WaitGroup
	for w := 0; w < workers; w++ {
		race.Add(1)
		go func(w int) {
			defer race.Done()
			conn, err := net.Dial("unix", socket)
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			sc, enc := bufio.NewScanner(conn), json.NewEncoder(conn)
			for i := 0; i < per; i++ {
				resp, err := roundTrip(sc, enc, Message{
					Op: "submit", ID: fmt.Sprintf("cr-%d-%d", w, i),
					ReqID: fmt.Sprintf("req-%d-%d", w, i), Statement: stmts[w][i],
				})
				if err != nil {
					errc <- err
					return
				}
				if !resp.OK {
					errc <- fmt.Errorf("submit cr-%d-%d refused: %+v", w, i, resp)
					return
				}
				if i%4 == 3 {
					// Interleave clock advances so grant/epoch records land in
					// the journal between the racing submits.
					if _, err := roundTrip(sc, enc, Message{Op: "advance", Seconds: 1}); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	race.Add(1)
	go func() { // a reader racing the writers: stats, status, metrics
		defer race.Done()
		conn, err := net.Dial("unix", socket)
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		sc, enc := bufio.NewScanner(conn), json.NewEncoder(conn)
		sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
		for i := 0; i < 50; i++ {
			for _, m := range []Message{{Op: "stats"}, {Op: "status", ID: "cr-0-0"}, {Op: "metrics"}} {
				if _, err := roundTrip(sc, enc, m); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	race.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if _, compactions, _, _ := d.jl.Stats(); compactions < 4 {
		t.Fatalf("%d compactions ran during the storm, want >= 4 — threshold premise broken", compactions)
	}
	c := dial(t, socket)
	for _, id := range ids {
		if resp := c.call(t, Message{Op: "status", ID: id}); !resp.OK {
			t.Fatalf("job %s lost under compaction: %+v", id, resp)
		}
	}
	// Kill without flushing, replay: the folded journal still carries all
	// 48 submits, each once.
	d.kill()
	d.boot(t)
	replayed := d.journalIDs()
	if len(replayed) != len(ids) {
		t.Fatalf("replay recovered %d jobs, want %d", len(replayed), len(ids))
	}
	if lost := invariants.Lost(ids, replayed); len(lost) > 0 {
		t.Fatalf("jobs %v missing from the replayed registry", lost)
	}
	if dups := invariants.Duplicates(replayed); len(dups) > 0 {
		t.Fatalf("replayed registry holds duplicate ids %v", dups)
	}
}
