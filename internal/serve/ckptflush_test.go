package serve

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/tpch"
)

// expectReattach checks one incarnation's recovery counters against what
// it recovered: a job the journal showed with at least one completed
// epoch must find a checkpoint, so only zero-epoch jobs may restart from
// scratch — the same bound a write-per-save store gives on this schedule.
// finished is set once every recovered job has been granted.
func expectReattach(t *testing.T, label string, recovered []JobRecord, rec core.RecoveryStats, finished bool) {
	t.Helper()
	zeroEpoch := 0
	for _, jr := range recovered {
		if jr.Epochs == 0 {
			zeroEpoch++
		}
	}
	if rec.Reattached != len(recovered) {
		t.Errorf("%s: reattached %d of %d recovered jobs", label, rec.Reattached, len(recovered))
	}
	if rec.ScratchRestarts > zeroEpoch {
		t.Errorf("%s: %d scratch restarts, but only %d of %d recovered jobs had no completed epoch",
			label, rec.ScratchRestarts, zeroEpoch, len(recovered))
	}
	if finished && rec.Rollbacks < len(recovered)-zeroEpoch {
		t.Errorf("%s: %d jobs resumed from a checkpoint, want all %d with a completed epoch",
			label, rec.Rollbacks, len(recovered)-zeroEpoch)
	}
}

// TestKillRestartReattachesToFlushedCheckpoints kills the daemon at every
// point of the seed's crash schedule. Each kill lands between two journal
// steps, where the stage is empty, so every job the journal shows with a
// completed epoch reattaches to a checkpoint in the next incarnation.
func TestKillRestartReattachesToFlushedCheckpoints(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := newDaemon(t, daemon{durable: true})
			d.start(t)
			kills, withEpochs := 0, 0
			var recovered []JobRecord
			var total core.RecoveryStats
			c, _ := drive(t, dial(t, d.socket), chaosPlan(seed, true), func(float64) *client {
				expectReattach(t, fmt.Sprintf("incarnation %d", kills), recovered, d.exec.Recovery(), false)
				total = total.Add(d.exec.Recovery())
				c := d.restart(t)
				kills++
				recovered = d.jl.Recovered().NonTerminal()
				for _, jr := range recovered {
					if jr.Epochs > 0 {
						withEpochs++
					}
				}
				return c
			})
			c.call(t, Message{Op: "advance", Seconds: 3000})
			expectReattach(t, "last incarnation", recovered, d.exec.Recovery(), true)
			total = total.Add(d.exec.Recovery())
			t.Logf("%d kills: reattached %d, resumed from a checkpoint %d, scratch restarts %d, wasted work %.1f virtual s",
				kills, total.Reattached, total.Rollbacks, total.ScratchRestarts, total.WastedWorkSecs)
			if withEpochs == 0 {
				t.Fatal("no kill caught a job with a completed epoch: the schedule proves nothing")
			}
			c.drain(t)
		})
	}
}

// rowsOnDisk reads every checkpoint under dir/ckpt the way a restarted
// daemon would and reports the rows each job's persisted state has
// processed.
func rowsOnDisk(t *testing.T, dir string, cat *tpch.Catalog, queries map[string]string) map[string]int64 {
	t.Helper()
	reader, err := core.NewCheckpointStoreIO(filepath.Join(dir, "ckpt"), 0, func(string) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int64{}
	for id, query := range queries {
		data, _, err := reader.Load(id)
		if err != nil {
			continue
		}
		q, err := cat.NewQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Restore(data); err != nil {
			t.Fatalf("checkpoint of %s does not restore: %v", id, err)
		}
		rows[id] = q.RowsProcessed()
	}
	return rows
}

// TestKillMidAdvanceRecoversLastJournaledStep drives the server's own
// handlers on the test goroutine, then runs the engine the way the
// advance op does and stops before the op's journal step — where a kill
// -9 in the middle of an advance leaves the process. The executor has
// saved newer state many times by then; none of it may be on disk, so
// recovery restores each job to the rows it had at the last step the
// journal's clock covers.
func TestKillMidAdvanceRecoversLastJournaledStep(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.boot(t)
	srv, exec := d.srv, d.exec
	queries := map[string]string{"m-a": "q1", "m-b": "q1", "m-c": "q18"}
	for _, id := range []string{"m-a", "m-b", "m-c"} {
		stmt := queries[id] + " ACC MIN 95% WITHIN 2000 SECONDS"
		if r := srv.handle(Message{Op: "submit", ID: id, Statement: stmt}); !r.OK {
			t.Fatalf("submit %s: %+v", id, r)
		}
	}
	step := srv.handle(Message{Op: "advance", Seconds: 60})
	if !step.OK {
		t.Fatalf("advance: %+v", step)
	}
	before := rowsOnDisk(t, d.dir, d.cat, queries)
	if len(before) < 2 {
		t.Fatalf("only %d jobs had a checkpoint after the completed step: %v", len(before), before)
	}
	epochs := map[string]int{}
	for id := range queries {
		j := srv.jobIndex[id]
		epochs[id] = j.Epochs()
		// Waiting or mid-epoch, a job holds exactly what its checkpoint holds:
		// an in-flight epoch's rows are consumed when it completes.
		if j.Query().RowsProcessed() != before[id] {
			t.Fatalf("%s: %d rows live, %d on disk at a step boundary", id, j.Query().RowsProcessed(), before[id])
		}
	}

	// The killed step: the engine half of an advance, never journaled.
	eng := exec.Engine()
	eng.RunUntil(eng.Now() + 45)
	lost := 0
	for id := range queries {
		lost += srv.jobIndex[id].Epochs() - epochs[id]
	}
	if lost == 0 {
		t.Fatal("no job completed an epoch inside the killed step: the kill proves nothing")
	}
	t.Logf("the killed step completed %d epochs that recovery will run again", lost)
	d.jl.Close() // kill -9: journal handle gone, store abandoned with its stage

	if after := rowsOnDisk(t, d.dir, d.cat, queries); !reflect.DeepEqual(after, before) {
		t.Fatalf("checkpoints ran ahead of the journal:\n at the last step %v\n after the kill   %v", before, after)
	}
	d.boot(t)
	srv2, exec2 := d.srv, d.exec
	if now := exec2.Engine().Now().Seconds(); now != step.VirtualNow {
		t.Fatalf("recovered clock %.3f, want the last journaled step %.3f", now, step.VirtualNow)
	}
	if r := srv2.handle(Message{Op: "advance", Seconds: 4000}); !r.OK {
		t.Fatalf("advance after recovery: %+v", r)
	}
	if rec := exec2.Recovery(); rec.Reattached != 3 || rec.ScratchRestarts != 3-len(before) {
		t.Fatalf("recovery %+v, want 3 reattached and %d scratch restarts", rec, 3-len(before))
	}
	for id := range queries {
		if r := srv2.handle(Message{Op: "status", ID: id}); !r.OK || r.Status == "pending" || r.Status == "running" {
			t.Fatalf("%s after recovery: %+v", id, r)
		}
	}
}

// opLog records the mutating operations a durable stack issues.
type opLog struct {
	diskio.IO
	mu  sync.Mutex
	ops []string
}

type opLogFile struct {
	diskio.File
	l *opLog
}

func (l *opLog) add(op, name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, op+" "+filepath.Base(name))
}
func (f opLogFile) Write(p []byte) (int, error) {
	f.l.add("write", fmt.Sprint(len(p)))
	return f.File.Write(p)
}
func (f opLogFile) Sync() error { f.l.add("sync", ""); return f.File.Sync() }
func (l *opLog) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	l.add("open", name)
	f, err := l.IO.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return opLogFile{File: f, l: l}, nil
}
func (l *opLog) Rename(oldpath, newpath string) error {
	l.add("rename", newpath)
	return l.IO.Rename(oldpath, newpath)
}
func (l *opLog) Remove(name string) error { l.add("remove", name); return l.IO.Remove(name) }

// ckptOnly sends checkpoint-store paths to one disk and everything else
// (the journal) to another, so faults can hit the checkpoints alone and
// the run stays free of the journal's wall-clock heal probing.
type ckptOnly struct {
	diskio.IO // the journal's disk
	ckpt      diskio.IO
}

func (c ckptOnly) pick(name string) diskio.IO {
	if strings.Contains(name+"/", "/ckpt/") { // files under ckpt/, and the directory itself
		return c.ckpt
	}
	return c.IO
}
func (c ckptOnly) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	return c.pick(name).OpenFile(name, flag, perm)
}
func (c ckptOnly) Rename(oldpath, newpath string) error {
	return c.pick(newpath).Rename(oldpath, newpath)
}
func (c ckptOnly) Remove(name string) error { return c.pick(name).Remove(name) }
func (c ckptOnly) SyncDir(dir string) error { return c.pick(dir).SyncDir(dir) }

// seriesOf pulls the series whose name keep accepts out of a metrics
// report, as rendered lines and as values.
func seriesOf(report string, keep func(name string) bool) (lines string, values map[string]float64) {
	values = map[string]float64{}
	for _, line := range strings.Split(report, "\n") {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 && keep(name) {
			lines += line + "\n"
			values[name] = v
		}
	}
	return lines, values
}

// ckptMetrics pulls the checkpoint store's deterministic series out of a
// metrics report.
func ckptMetrics(report string) (lines string, values map[string]float64) {
	return seriesOf(report, func(name string) bool { return strings.HasPrefix(name, "rotary_ckpt_") })
}

// TestFlushUnderSeededCheckpointFaults runs one scripted workload twice
// over a checkpoint disk that fails by seed. Both runs issue the same
// disk operations in the same order and render the same checkpoint
// series; failed flushes cost no job a restart, surface on health, and
// every save is accounted for as written or coalesced once the stage has
// drained.
func TestFlushUnderSeededCheckpointFaults(t *testing.T) {
	run := func(t *testing.T, seed uint64) (ops []string, series string) {
		faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: seed, SyncFailRate: 0.2, RenameFailRate: 0.1, BurstOps: 6})
		log := &opLog{IO: ckptOnly{IO: diskio.OS{}, ckpt: faulty}}
		d := newDaemon(t, daemon{durable: true, dio: log})
		d.start(t)
		c := dial(t, d.socket)
		now, sawDegraded := 0.0, false
		for _, ev := range chaosPlan(seed, false) {
			for ev.at > now { // short steps: many flushes, some of them failing
				now = c.call(t, Message{Op: "advance", Seconds: min(15, ev.at-now)}).VirtualNow
				if hr := c.call(t, Message{Op: "health"}); hr.Status == "checkpoint-degraded" {
					sawDegraded = true
					if !hr.OK || !strings.Contains(hr.Error, "checkpoint") {
						t.Fatalf("degraded health reply: %+v", hr)
					}
				}
			}
			if r := c.call(t, Message{Op: "submit", ID: ev.id, Statement: ev.stmt}); !r.OK {
				t.Fatalf("submit %s: %+v", ev.id, r)
			}
		}
		faulty.SetEnabled(false)
		c.call(t, Message{Op: "advance", Seconds: 10})
		if hr := c.call(t, Message{Op: "health"}); hr.Status != "healthy" {
			t.Fatalf("health after the disk recovered and a step flushed: %+v", hr)
		}
		c.call(t, Message{Op: "advance", Seconds: 3000})
		series, m := ckptMetrics(c.call(t, Message{Op: "metrics"}).Report)
		if !sawDegraded || m["rotary_ckpt_flush_errors_total"] == 0 {
			t.Fatalf("no flush failed (health degraded %v): the fault mix proves nothing\n%s", sawDegraded, series)
		}
		if m["rotary_ckpt_coalesced_total"] == 0 || m["rotary_ckpt_staged_bytes"] != 0 ||
			m["rotary_ckpt_writes_total"] != m["rotary_ckpt_disk_writes_total"]+m["rotary_ckpt_coalesced_total"] {
			t.Fatalf("saves do not reconcile as written + coalesced with the stage drained:\n%s", series)
		}
		if rec := d.exec.Recovery(); rec.ScratchRestarts != 0 {
			t.Fatalf("failed flushes cost live jobs %d scratch restarts", rec.ScratchRestarts)
		}
		c.drain(t)
		return log.ops, series
	}
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops1, series1 := run(t, seed)
			ops2, series2 := run(t, seed)
			if !reflect.DeepEqual(ops1, ops2) {
				t.Fatalf("same seed, different disk operations (%d vs %d)", len(ops1), len(ops2))
			}
			if series1 != series2 {
				t.Fatalf("same seed, different checkpoint series:\n%s\n%s", series1, series2)
			}
		})
	}
}

// TestStatusOfRunningJobIsItsLastCompletedEpoch: an epoch's results commit
// when it completes, so a status read mid-epoch reports exactly what the
// job's last completed epoch observed, not a mix with in-flight rows.
func TestStatusOfRunningJobIsItsLastCompletedEpoch(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.boot(t)
	srv := d.srv
	if r := srv.handle(Message{Op: "submit", ID: "solo", Statement: "q3 ACC MIN 95% WITHIN 2000 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	// Alone on the pool the job is re-granted the instant it releases, so
	// every step boundary finds it mid-epoch.
	for i := 0; i < 5; i++ {
		if r := srv.handle(Message{Op: "advance", Seconds: 40}); !r.OK {
			t.Fatalf("advance: %+v", r)
		}
		j := srv.jobIndex["solo"]
		log := j.EpochLog()
		st := srv.handle(Message{Op: "status", ID: "solo"})
		if st.Status != "running" || len(log) == 0 {
			t.Fatalf("step %d: status %q after %d epochs, want a running job with history", i, st.Status, len(log))
		}
		// The estimate sums per-cell terms in map order, so two reads of one
		// state may differ in the last bits; an in-flight epoch's rows move it
		// by whole percents.
		last := log[len(log)-1]
		if math.Abs(st.Accuracy-last.EstAcc) > 1e-9 || math.Abs(st.Progress-last.Progress) > 1e-9 {
			t.Fatalf("step %d: mid-epoch status reports accuracy %v progress %v, epoch %d ended at %v and %v",
				i, st.Accuracy, st.Progress, last.Epoch, last.EstAcc, last.Progress)
		}
	}
}

// TestEncodesBoundedByFramesNeeded runs the scripted plan on a healthy
// disk: a deferral hands the store an encoder, so job state is encoded
// only for a frame something needed — the pristine copy at admission, a
// frame a flush wrote, a frame a resume read — never once per epoch. The
// count repeats exactly across runs of one seed.
func TestEncodesBoundedByFramesNeeded(t *testing.T) {
	keep := func(name string) bool {
		switch name {
		case "rotary_checkpoint_encode_seconds_count", "rotary_ckpt_encodes_total", "rotary_ckpt_writes_total",
			"rotary_ckpt_disk_writes_total", "rotary_ckpt_disk_hits_total", "rotary_aqp_epochs_total":
			return true
		}
		return false
	}
	run := func(t *testing.T, seed uint64) string {
		d := newDaemon(t, daemon{durable: true})
		d.start(t)
		c := dial(t, d.socket)
		now, admitted := 0.0, 0
		for _, ev := range chaosPlan(seed, false) {
			for ev.at > now {
				now = c.call(t, Message{Op: "advance", Seconds: min(15, ev.at-now)}).VirtualNow
			}
			if r := c.call(t, Message{Op: "submit", ID: ev.id, Statement: ev.stmt}); !r.OK {
				t.Fatalf("submit %s: %+v", ev.id, r)
			}
			admitted++
		}
		c.call(t, Message{Op: "advance", Seconds: 3000})
		// The encode histogram is wall-class; its count is not.
		lines, m := seriesOf(c.call(t, Message{Op: "metrics", Wall: true}).Report, keep)
		encodes, epochs := m["rotary_checkpoint_encode_seconds_count"], m["rotary_aqp_epochs_total"]
		needed := float64(admitted) + m["rotary_ckpt_disk_writes_total"] + m["rotary_ckpt_disk_hits_total"]
		if encodes == 0 || encodes > needed || encodes >= epochs/2 {
			t.Fatalf("%v encodes for %v frames needed and %v epochs:\n%s", encodes, needed, epochs, lines)
		}
		if m["rotary_ckpt_encodes_total"] != encodes-float64(admitted) {
			t.Fatalf("store forced %v encoders, executor ran %v beyond the %d pristine copies:\n%s",
				m["rotary_ckpt_encodes_total"], encodes-float64(admitted), admitted, lines)
		}
		c.drain(t)
		return lines
	}
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if a, b := run(t, seed), run(t, seed); a != b {
				t.Fatalf("same seed, different encode series:\n%s\n%s", a, b)
			}
		})
	}
}
