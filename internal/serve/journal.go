// Arbiter write-ahead journal: the durability layer that turns the
// serving daemon from a process-scoped prototype into a crash-recoverable
// arbiter. Every serve-state transition — submit, admission verdict,
// grant, epoch completion, terminal status — is appended as one
// CRC-framed JSON line and fsynced before the client sees the reply, so a
// SIGKILL at any instant loses at most the transition in flight. On
// restart the journal replays to the last durable state: the registry of
// jobs, each job's latest status, the admission queue's arrival order,
// and the virtual-clock position. Growth-triggered compaction folds the
// log into a single snapshot record at the head of a fresh segment.
//
// One roll starts every snapshot-headed segment, for compaction and for
// Heal alike: the snapshot (plus, for a heal, a recovery-barrier record)
// is published as the next segment through core.AtomicWriteFileIO — temp
// file, fsync, rename, directory fsync, each checked — then read back and
// compared byte for byte; only then does the journal swap its append
// handle to it and remove the segments it supersedes. A failed roll
// latches the journal degraded and leaves its handle on the old segment.
//
// Compaction trigger and bound: the active segment is compacted when it
// exceeds max(C, 2·S), where C is the compaction floor (SetCompactBytes,
// 1 MiB by default) and S is the framed size of the snapshot line that
// heads the segment (0 if none). Above the floor a fold therefore runs
// only once the tail appended since the last snapshot is as large as the
// snapshot itself: each O(history) fold is paid for by O(history) bytes
// of appends, so the per-append compaction cost is amortised O(1) — the
// standard log-compaction argument — instead of one full rewrite per
// append once S alone passes C. The file is at most max(C, 2·S) plus one
// append group, so replay reads at most ~2× the snapshot. S itself grows
// with retained history (terminal jobs stay in the snapshot: status and
// req_id dedupe answer from them), so the journal is bounded relative to
// the state it must remember, not by a constant.
//
// Corruption tolerance: a torn append (power cut mid-line) or a
// bit-flipped tail is detected by the per-line CRC32 and the journal
// degrades to its longest valid prefix — the damaged suffix is truncated
// away and recovery proceeds from what was provably durable, instead of
// refusing to start.
//
// Disk-fault tolerance: a failed write or fsync marks the journal
// degraded — the active segment may end in a torn frame, so appending
// past it would be unrecoverable on replay and is refused with
// ErrJournalDegraded. Degradation is recoverable: Heal rolls the log to
// a fresh segment headed by a snapshot of the durable state plus a
// recovery-barrier record, and a roll that published and verified it
// lifts the latch. Recovery replays the segment chain in order with the
// same longest-valid-prefix rule per segment; each snapshot-headed
// segment subsumes everything before it, including any torn tail the
// degraded segment was abandoned with. All file operations go through a
// pluggable diskio.IO so chaos runs can deal ENOSPC, EIO, short writes,
// and slow fsyncs from a seed.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rotary/internal/core"
	"rotary/internal/diskio"
)

// Journal record kinds, one per arbiter state transition.
const (
	// recServerEpoch marks a daemon boot: the server-epoch counter
	// increments once per OpenJournal, and clients detect restarts by
	// comparing it in the resume handshake.
	recServerEpoch = "server-epoch"
	// recSubmit logs an accepted submission before it reaches the
	// executor (WAL ordering: log first, apply second).
	recSubmit = "submit"
	// recVerdict logs the admission decision: admitted, rejected, or
	// degraded (admitted best-effort).
	recVerdict = "verdict"
	// recGrant logs a pending → running transition.
	recGrant = "grant"
	// recEpoch logs a completed running epoch (cumulative count).
	recEpoch = "epoch"
	// recTerminal logs a terminal status: attained, converged, expired,
	// rejected, or shed.
	recTerminal = "terminal"
	// recClock periodically persists the virtual-clock position so a
	// restart of an idle paced server does not rewind time to the last
	// job transition.
	recClock = "clock"
	// recSnapshot is the roll's record: the full replayed state, folded
	// into one line at the head of a fresh segment.
	recSnapshot = "snapshot"
	// recBarrier is the recovery barrier written (after a snapshot) at
	// the head of the fresh segment a Heal rolls to: proof on disk that
	// a degraded journal was verified healthy again, carrying the
	// cumulative heal count.
	recBarrier = "recovery-barrier"
)

// Record is one journal entry. At is the virtual time of the transition;
// recovery resumes the clock at the maximum At seen in the valid prefix.
type Record struct {
	Kind        string      `json:"kind"`
	ID          string      `json:"id,omitempty"`
	ReqID       string      `json:"req_id,omitempty"`
	Statement   string      `json:"stmt,omitempty"`
	Tenant      string      `json:"tenant,omitempty"`
	BatchRows   int         `json:"batch,omitempty"`
	Status      string      `json:"status,omitempty"`
	BestEffort  bool        `json:"best_effort,omitempty"`
	Epochs      int         `json:"epochs,omitempty"`
	At          float64     `json:"at"`
	ServerEpoch int         `json:"server_epoch,omitempty"`
	Heals       int         `json:"heals,omitempty"` // recovery-barrier only
	Jobs        []JobRecord `json:"jobs,omitempty"`  // snapshot only
}

// JobRecord is one job's journaled lifecycle state: everything recovery
// needs to rebuild the job and its queue position after a restart.
type JobRecord struct {
	ID         string  `json:"id"`
	ReqID      string  `json:"req_id,omitempty"`
	Statement  string  `json:"stmt"`
	Tenant     string  `json:"tenant,omitempty"`
	BatchRows  int     `json:"batch,omitempty"`
	ArrivalAt  float64 `json:"arrival_at"`
	Status     string  `json:"status"`
	BestEffort bool    `json:"best_effort,omitempty"`
	Epochs     int     `json:"epochs,omitempty"`
}

// terminalStatus reports whether a journaled status string is final.
// "submitted" (logged, not yet admitted) and "pending"/"running" are
// live; everything else recovery must not re-register.
func terminalStatus(status string) bool {
	switch status {
	case "submitted", "pending", "running":
		return false
	default:
		return true
	}
}

// Recovered is the durable state replayed from the journal's valid
// prefix at open time: what the previous daemon incarnation provably
// committed.
type Recovered struct {
	// ServerEpoch is the new incarnation's epoch (previous epoch + 1).
	ServerEpoch int
	// VirtualNow is the virtual-clock position to resume from: the
	// maximum transition time in the valid prefix.
	VirtualNow float64
	// Jobs lists every journaled job in original arrival order, each at
	// its latest journaled status.
	Jobs []JobRecord
	// DroppedBytes counts corrupt or truncated tail bytes discarded at
	// open (0 for a clean journal).
	DroppedBytes int64
	// Heals is the cumulative recovery-barrier count replayed from the
	// chain: how many times past incarnations healed a degraded journal.
	Heals int64
}

// NonTerminal returns the journaled jobs recovery must re-register, in
// arrival order.
func (r Recovered) NonTerminal() []JobRecord {
	out := make([]JobRecord, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if !terminalStatus(j.Status) {
			out = append(out, j)
		}
	}
	return out
}

// Journal line format:
//
//	RJNL1 <crc32-hex8> <json-record>\n
//
// The CRC32 (IEEE) covers exactly the JSON payload bytes, reusing the
// checkpoint frame's checksum discipline in a line-oriented shape: a
// record whose prefix, checksum, or JSON fails to parse marks the end of
// the journal's valid prefix.
const journalMagic = "RJNL1"

// journalFile is the base segment's file name inside the journal
// directory. Segments rolled by compaction or Heal append a numeric
// suffix (serve.journal.000001, …); replay walks them in sequence order.
const journalFile = "serve.journal"

// DefaultCompactBytes is the compaction floor: below it the journal never
// compacts; above it the trigger is relative to the snapshot's own size
// (see the package comment).
const DefaultCompactBytes = 1 << 20

// segmentName renders one segment's file name: the bare journal file
// for sequence 0, a zero-padded numeric suffix afterwards (padding
// keeps lexical directory listings in sequence order for humans; the
// code sorts numerically).
func segmentName(seq int) string {
	if seq == 0 {
		return journalFile
	}
	return fmt.Sprintf("%s.%06d", journalFile, seq)
}

// parseSegmentName reports the sequence number of a journal segment
// file name, or ok=false for anything else (temp files, checkpoints).
func parseSegmentName(name string) (seq int, ok bool) {
	if name == journalFile {
		return 0, true
	}
	suffix, found := strings.CutPrefix(name, journalFile+".")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(suffix)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Journal is the arbiter's write-ahead log. Append is safe for
// concurrent use, though the serving mode only writes from its single
// driver goroutine.
type Journal struct {
	mu           sync.Mutex
	dir          string
	dio          diskio.IO
	seq          int    // active segment sequence number
	path         string // active segment path
	f            diskio.File
	size         int64
	compactBytes int64
	// snapshotBytes is the framed size of the snapshot line heading the
	// active segment (0 if it has none): the S of the max(C, 2·S) trigger.
	// Set wherever a snapshot becomes the segment head — the roll, and
	// replay at open, so a restarted aged journal stays aged.
	snapshotBytes int64

	// Live replay state, mirrored on every append so compaction can fold
	// the log into a snapshot without re-reading it.
	jobs        map[string]*JobRecord
	order       []string
	serverEpoch int
	virtualNow  float64

	recovered    Recovered
	appends      int64
	syncs        int64
	groups       int64
	compactions  int64
	heals        int64
	healFailures int64
	closed       bool

	// degraded latches the journal after a failed write or sync. A torn
	// frame ends the active segment's longest valid prefix: any record
	// written past it would be unreadable on replay, so instead of
	// silently losing post-tear appends the journal refuses them with
	// ErrJournalDegraded until Heal rolls to a verified fresh segment.
	degraded error

	// Fault-injection hooks for tests; nil in production.
	frameHook func(Record) ([]byte, error)
	writeHook func([]byte) (int, error)
}

// OpenJournalIO opens (creating if absent) the write-ahead journal under
// dir, replays its valid prefix, truncates any corrupt tail, and stamps
// the new daemon incarnation with an incremented server-epoch record.
// Every disk operation goes through dio (nil means the real disk).
// Orphaned atomic-write temp files from a crashed or fault-interrupted
// roll are swept before replay.
func OpenJournalIO(dir string, dio diskio.IO) (*Journal, error) {
	if dio == nil {
		dio = diskio.OS{}
	}
	if err := dio.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	jl := &Journal{
		dir:          dir,
		dio:          dio,
		compactBytes: DefaultCompactBytes,
		jobs:         make(map[string]*JobRecord),
	}
	sweepJournalTemps(dio, dir)
	segs, err := listSegments(dio, dir)
	if err != nil {
		return nil, err
	}
	dropped, err := jl.replayChain(segs, true)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		jl.seq = segs[len(segs)-1]
	}
	jl.path = filepath.Join(dir, segmentName(jl.seq))
	f, err := dio.OpenFile(jl.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open journal: %w", err)
	}
	jl.f = f
	jl.serverEpoch++
	jl.recovered = Recovered{
		ServerEpoch:  jl.serverEpoch,
		VirtualNow:   jl.virtualNow,
		Jobs:         jl.snapshotJobs(),
		DroppedBytes: dropped,
		Heals:        jl.heals,
	}
	if err := jl.Append(Record{Kind: recServerEpoch, ServerEpoch: jl.serverEpoch, At: jl.virtualNow}); err != nil {
		f.Close()
		return nil, err
	}
	return jl, nil
}

// ReplayJournal replays the journal chain under dir read-only: no
// truncation, no epoch increment, no appended boot record. It is the
// offline inspection primitive the torture harness's invariant checker
// uses to compare what the disk provably holds against what clients
// were acked.
func ReplayJournal(dir string) (Recovered, error) {
	return ReplayJournalIO(dir, nil)
}

// ReplayJournalIO is ReplayJournal over a pluggable disk layer.
func ReplayJournalIO(dir string, dio diskio.IO) (Recovered, error) {
	if dio == nil {
		dio = diskio.OS{}
	}
	jl := &Journal{dir: dir, dio: dio, jobs: make(map[string]*JobRecord)}
	segs, err := listSegments(dio, dir)
	if err != nil {
		return Recovered{}, err
	}
	dropped, err := jl.replayChain(segs, false)
	if err != nil {
		return Recovered{}, err
	}
	return Recovered{
		ServerEpoch:  jl.serverEpoch,
		VirtualNow:   jl.virtualNow,
		Jobs:         jl.snapshotJobs(),
		DroppedBytes: dropped,
		Heals:        jl.heals,
	}, nil
}

// sweepJournalTemps removes orphaned atomic-write temp files
// (serve.journal*.tmp) left behind when a crash or an injected fault
// interrupted a roll between temp-fsync and rename. The rename
// never happened, so a temp never holds the only copy of durable state
// — sweeping is always safe, and leaving them would leak disk forever.
func sweepJournalTemps(dio diskio.IO, dir string) {
	entries, err := dio.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, journalFile) || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		_ = dio.Remove(filepath.Join(dir, name))
	}
}

// listSegments returns the journal segment sequence numbers present
// under dir, sorted ascending. A missing directory or no segments is an
// empty journal.
func listSegments(dio diskio.IO, dir string) ([]int, error) {
	entries, err := dio.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: list journal segments: %w", err)
	}
	var segs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seq)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// replayChain replays every segment in sequence order, applying each
// segment's longest valid prefix. When truncate is set, each segment's
// invalid tail is cut off on disk (open-for-write semantics); read-only
// callers leave the files untouched. A torn tail in a non-final segment
// is safe to drop either way: segments after it were started by a roll,
// whose head snapshot subsumes everything the tail could have held.
func (jl *Journal) replayChain(segs []int, truncate bool) (dropped int64, err error) {
	for _, seq := range segs {
		d, err := jl.replaySegment(filepath.Join(jl.dir, segmentName(seq)), truncate)
		if err != nil {
			return dropped, err
		}
		dropped += d
	}
	return dropped, nil
}

// replaySegment reads one segment, applies every valid record, and (if
// truncate is set) cuts the file to the longest valid prefix, reporting
// how many tail bytes were dropped. A missing file is an empty segment.
func (jl *Journal) replaySegment(path string, truncate bool) (dropped int64, err error) {
	data, err := jl.dio.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: read journal: %w", err)
	}
	valid := int64(0)
	jl.snapshotBytes = 0
	r := bufio.NewReader(bytes.NewReader(data))
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF && len(line) == 0 {
			break
		}
		// A line without its trailing newline is a torn append.
		if rerr != nil {
			break
		}
		rec, perr := parseJournalLine(line[:len(line)-1])
		if perr != nil {
			break
		}
		jl.apply(rec)
		if rec.Kind == recSnapshot {
			jl.snapshotBytes = int64(len(line))
		}
		valid += int64(len(line))
	}
	dropped = int64(len(data)) - valid
	if dropped > 0 && truncate {
		if terr := jl.dio.Truncate(path, valid); terr != nil {
			return dropped, fmt.Errorf("serve: truncate corrupt journal tail: %w", terr)
		}
	}
	jl.size = valid
	return dropped, nil
}

// frameJournalLine renders one record as a CRC-framed line (including the
// trailing newline).
func frameJournalLine(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal journal record: %w", err)
	}
	line := make([]byte, 0, len(journalMagic)+10+len(payload)+1)
	line = append(line, journalMagic...)
	line = append(line, ' ')
	line = append(line, fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseJournalLine validates one framed line (without its newline) and
// returns its record. Any deviation — bad magic, short line, checksum
// mismatch, malformed JSON — is corruption.
func parseJournalLine(line []byte) (Record, error) {
	var rec Record
	if len(line) < len(journalMagic)+10 {
		return rec, fmt.Errorf("serve: journal line too short (%d bytes)", len(line))
	}
	if string(line[:len(journalMagic)]) != journalMagic || line[len(journalMagic)] != ' ' {
		return rec, fmt.Errorf("serve: bad journal magic %q", line[:len(journalMagic)])
	}
	crcHex := string(line[len(journalMagic)+1 : len(journalMagic)+9])
	if line[len(journalMagic)+9] != ' ' {
		return rec, fmt.Errorf("serve: malformed journal frame")
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return rec, fmt.Errorf("serve: bad journal checksum field: %w", err)
	}
	payload := line[len(journalMagic)+10:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return rec, fmt.Errorf("serve: journal CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("serve: journal record: %w", err)
	}
	return rec, nil
}

// apply folds one record into the live replay state. Shared by the open
// replay and Append, so the in-memory mirror always equals what a fresh
// replay of the file would produce.
func (jl *Journal) apply(rec Record) {
	if rec.At > jl.virtualNow {
		jl.virtualNow = rec.At
	}
	switch rec.Kind {
	case recServerEpoch:
		if rec.ServerEpoch > jl.serverEpoch {
			jl.serverEpoch = rec.ServerEpoch
		}
	case recSnapshot:
		jl.jobs = make(map[string]*JobRecord, len(rec.Jobs))
		jl.order = jl.order[:0]
		for i := range rec.Jobs {
			j := rec.Jobs[i]
			jl.jobs[j.ID] = &j
			jl.order = append(jl.order, j.ID)
		}
		if rec.ServerEpoch > jl.serverEpoch {
			jl.serverEpoch = rec.ServerEpoch
		}
	case recBarrier:
		if int64(rec.Heals) > jl.heals {
			jl.heals = int64(rec.Heals)
		}
		if rec.ServerEpoch > jl.serverEpoch {
			jl.serverEpoch = rec.ServerEpoch
		}
	case recSubmit:
		if _, ok := jl.jobs[rec.ID]; !ok {
			jl.jobs[rec.ID] = &JobRecord{
				ID:        rec.ID,
				ReqID:     rec.ReqID,
				Statement: rec.Statement,
				Tenant:    rec.Tenant,
				BatchRows: rec.BatchRows,
				ArrivalAt: rec.At,
				Status:    "submitted",
			}
			jl.order = append(jl.order, rec.ID)
		}
	case recVerdict:
		if j, ok := jl.jobs[rec.ID]; ok {
			switch rec.Status {
			case "admitted":
				j.Status = "pending"
			case "degraded":
				j.Status = "pending"
				j.BestEffort = true
			default: // rejected
				j.Status = rec.Status
			}
		}
	case recGrant:
		if j, ok := jl.jobs[rec.ID]; ok && !terminalStatus(j.Status) {
			j.Status = "running"
		}
	case recEpoch:
		if j, ok := jl.jobs[rec.ID]; ok {
			if rec.Epochs > j.Epochs {
				j.Epochs = rec.Epochs
			}
			if !terminalStatus(j.Status) {
				j.Status = "pending"
			}
		}
	case recTerminal:
		if j, ok := jl.jobs[rec.ID]; ok {
			j.Status = rec.Status
			if rec.Epochs > j.Epochs {
				j.Epochs = rec.Epochs
			}
		}
	}
}

// snapshotJobs copies the live job state in arrival order.
func (jl *Journal) snapshotJobs() []JobRecord {
	out := make([]JobRecord, 0, len(jl.order))
	for _, id := range jl.order {
		out = append(out, *jl.jobs[id])
	}
	return out
}

// Recovered returns the state replayed at open: the previous
// incarnation's durable registry, queue order, and clock.
func (jl *Journal) Recovered() Recovered {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.recovered
}

// ServerEpoch returns this incarnation's epoch.
func (jl *Journal) ServerEpoch() int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.serverEpoch
}

// Job returns the journaled record for one id — the status op's
// fallback for jobs that went terminal before a restart and were
// therefore never re-registered with the executor.
func (jl *Journal) Job(id string) (JobRecord, bool) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	j, ok := jl.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return *j, true
}

// NonTerminalIDs returns the set of job ids the journal still references
// as live — the checkpoint store's retention set across a restart.
func (jl *Journal) NonTerminalIDs() map[string]bool {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	live := make(map[string]bool)
	for id, j := range jl.jobs {
		if !terminalStatus(j.Status) {
			live[id] = true
		}
	}
	return live
}

// Stats reports journal activity: records appended and compactions run
// by this incarnation, the active segment's current size, and the size
// of the snapshot line heading it (0 if none).
func (jl *Journal) Stats() (appends, compactions, sizeBytes, snapshotBytes int64) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.appends, jl.compactions, jl.size, jl.snapshotBytes
}

// SyncStats reports fsync amortization: how many f.Sync calls covered how
// many records, and how many of those syncs covered a multi-record group.
// records/syncs is the group-commit factor the ingress batching buys.
func (jl *Journal) SyncStats() (syncs, records, groups int64) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.syncs, jl.appends, jl.groups
}

// HealStats reports degraded-mode recovery activity: successful heals
// (cumulative across incarnations, replayed from recovery barriers) and
// failed heal attempts by this incarnation.
func (jl *Journal) HealStats() (heals, failures int64) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.heals, jl.healFailures
}

// Segment returns the active segment's sequence number — observable
// proof for tests that a heal rolled the log (and a restart did not).
func (jl *Journal) Segment() int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.seq
}

// ErrJournalDegraded marks a journal refusing appends after a failed
// write or sync left (or may have left) a torn frame at the active
// segment's tail. The state is recoverable: Heal rolls to a verified
// fresh segment and lifts it.
var ErrJournalDegraded = fmt.Errorf("serve: journal degraded")

// Degraded returns the latched write/sync failure, or nil while the
// journal is healthy.
func (jl *Journal) Degraded() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.degraded
}

// Heal attempts to lift a degraded journal by rolling to a fresh
// segment headed by a snapshot of the in-memory mirror plus a
// recovery-barrier record (see roll). Only a roll that published and
// verified the segment lifts the latch and counts a heal; any failure
// leaves the journal degraded with the original latch cause intact and
// counts a heal failure. Healing a healthy journal is a no-op.
func (jl *Journal) Heal() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return fmt.Errorf("serve: journal closed")
	}
	if jl.degraded == nil {
		return nil
	}
	barrier := Record{Kind: recBarrier, ServerEpoch: jl.serverEpoch, At: jl.virtualNow, Heals: int(jl.heals) + 1}
	if err := jl.roll(barrier); err != nil {
		jl.healFailures++
		return fmt.Errorf("serve: journal heal: %w", err)
	}
	jl.degraded = nil
	jl.heals++
	return nil
}

// roll starts the next segment, the one way a snapshot-headed segment
// begins (compaction and Heal). The segment is a snapshot of the
// in-memory mirror — which holds exactly the durably applied state:
// records fold only after their fsync — followed by extra (Heal's
// recovery barrier). It is published as segment seq+1 through
// core.AtomicWriteFileIO, whose directory fsync is checked: a crash that
// forgot the new segment's name while acked records sit in it would lose
// them. The segment is then read back and must match byte for byte
// before the journal swaps its append handle to it and removes the
// segments it supersedes. On any failure the new segment is removed
// best-effort and the append handle stays on the old segment; the caller
// latches (or keeps) the journal degraded, so nothing is appended to the
// old segment while a newer one may exist, and the next roll replaces
// it. A crash at any point leaves a chain that replays to the same state.
func (jl *Journal) roll(extra ...Record) error {
	seq := jl.seq + 1
	path := filepath.Join(jl.dir, segmentName(seq))
	want, err := frameJournalLine(Record{
		Kind:        recSnapshot,
		ServerEpoch: jl.serverEpoch,
		At:          jl.virtualNow,
		Jobs:        jl.snapshotJobs(),
	})
	if err != nil {
		return err
	}
	snapshotBytes := int64(len(want))
	for _, rec := range extra {
		line, err := frameJournalLine(rec)
		if err != nil {
			return err
		}
		want = append(want, line...)
	}
	f, err := jl.publishSegment(path, want)
	if err != nil {
		_ = jl.dio.Remove(path)
		return fmt.Errorf("segment %d: %w", seq, err)
	}
	_ = jl.f.Close() // every record in it is already durable
	jl.f = f
	jl.seq = seq
	jl.path = path
	jl.size = int64(len(want))
	jl.snapshotBytes = snapshotBytes
	// Reclaim exactly the superseded segments on disk. A failed listing or
	// remove leaves segments that replay harmlessly before this one; the
	// next roll lists them again.
	if segs, err := listSegments(jl.dio, jl.dir); err == nil {
		for _, s := range segs {
			if s < seq {
				_ = jl.dio.Remove(filepath.Join(jl.dir, segmentName(s)))
			}
		}
	}
	return nil
}

// publishSegment writes a new segment's bytes crash-safely, verifies
// they come back off the disk exactly as framed (reads bypass fault
// injection, so this observes the disk's real content), and opens the
// segment for appends.
func (jl *Journal) publishSegment(path string, want []byte) (diskio.File, error) {
	if err := core.AtomicWriteFileIO(jl.dio, path, want); err != nil {
		return nil, err
	}
	got, err := jl.dio.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("verify: read back %d bytes, wrote %d", len(got), len(want))
	}
	return jl.dio.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// Append durably logs the records as one group: the whole batch is framed
// first, written and fsynced once, and only then folded into the live
// replay state. The ordering matters twice over: a frame error mid-batch
// must leave memory and disk untouched (not memory ahead of disk), and a
// failed write or sync must not fold records the file provably may lack.
// After a write/sync failure the journal latches degraded — the tail may
// hold a torn frame that ends the longest valid prefix, so further
// appends would be unrecoverable on replay and are refused — until Heal
// rolls to a verified fresh segment. When the file outgrows
// max(compactBytes, 2·snapshotBytes) the journal rolls to a fresh segment
// headed by a snapshot (compaction). By then the group is durable and
// applied, so a failed compaction latches degraded (the next append is
// refused, Heal recovers) but must not fail this append: the caller would
// un-ack records the disk provably holds.
func (jl *Journal) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return fmt.Errorf("serve: journal closed")
	}
	if jl.degraded != nil {
		return fmt.Errorf("%w: %v", ErrJournalDegraded, jl.degraded)
	}
	frame := frameJournalLine
	if jl.frameHook != nil {
		frame = jl.frameHook
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := frame(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	write := jl.f.Write
	if jl.writeHook != nil {
		write = jl.writeHook
	}
	n, err := write(buf.Bytes())
	jl.size += int64(n)
	if err != nil {
		jl.degraded = fmt.Errorf("append: %w", err)
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		jl.degraded = fmt.Errorf("sync: %w", err)
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	for _, rec := range recs {
		jl.apply(rec)
	}
	jl.appends += int64(len(recs))
	jl.syncs++
	if len(recs) > 1 {
		jl.groups++
	}
	if jl.size > max(jl.compactBytes, 2*jl.snapshotBytes) {
		if err := jl.roll(); err != nil {
			jl.degraded = fmt.Errorf("compaction: %w", err)
		} else {
			jl.compactions++
		}
	}
	return nil
}

// SetCompactBytes overrides the compaction floor (non-positive restores
// the default).
func (jl *Journal) SetCompactBytes(n int64) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if n <= 0 {
		n = DefaultCompactBytes
	}
	jl.compactBytes = n
}

// Close closes the journal file. Records already appended stay durable;
// Close adds nothing (a crash and a clean shutdown leave the same
// on-disk state, which is the point).
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil
	}
	jl.closed = true
	return jl.f.Close()
}
