package workload

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"

	"rotary/internal/aqp"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
)

// SeededHistoryFile is the file, in a durable daemon's state directory,
// that keeps what SeedAQPHistory produced at the directory's first boot.
const SeededHistoryFile = "seeded-history"

// seededHistoryVersion names the seeded-history file's layout and the
// meaning of what it holds: the curves aqpHistoryRecord scores and the
// final answers tpch.Catalog.Drain returns. A change that moves either
// (tpch's TestGroundTruthFingerprint pins the answers, and says so when
// it fails) must bump it, so that a directory an older binary seeded is
// seeded again instead of loaded.
const seededHistoryVersion = 1

// A HistoryKey is what seeding depends on besides the binary: the
// dataset (scale factor and generator seed), the catalog's shuffle seed
// and the history's batch rows. The query list and seededHistoryVersion
// complete the key a file is checked against.
type HistoryKey struct {
	SF          float64
	DatasetSeed uint64
	CatalogSeed uint64
	BatchRows   int
}

// The seeded-history file is one frame:
//
//	offset size  field
//	0      4     magic "RSHF"
//	4      4     body length, little-endian
//	8      4     CRC32 (IEEE) of the body, little-endian
//	12     …     body
//
// The body opens with the key — uvarint version, the SF's float bits,
// uvarint dataset seed, catalog seed and batch rows, uvarint query count
// and each query's name — and then holds, per query in key order, its
// history record (id, query, class, uvarint batch rows, uvarint points,
// each point's X and Y float bits) and its final answer
// (aqp.AppendSnapshot). Floats are stored as their bits, so a load is
// bit-identical to the seeding it replaces.
const (
	historyMagic     = "RSHF"
	historyHeaderLen = 12
)

// appendHistoryKey appends the key a seeded-history body opens with.
func appendHistoryKey(b []byte, version uint64, k HistoryKey, queries []string) []byte {
	b = binary.AppendUvarint(b, version)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.SF))
	b = binary.AppendUvarint(b, k.DatasetSeed)
	b = binary.AppendUvarint(b, k.CatalogSeed)
	b = binary.AppendUvarint(b, uint64(k.BatchRows))
	b = binary.AppendUvarint(b, uint64(len(queries)))
	for _, q := range queries {
		b = aqp.AppendName(b, q)
	}
	return b
}

// frameHistory wraps a body in the checksummed header.
func frameHistory(body []byte) []byte {
	frame := make([]byte, historyHeaderLen, historyHeaderLen+len(body))
	copy(frame, historyMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// LoadOrSeedAQPHistory leaves repo and cat's ground-truth cache as
// SeedAQPHistory(repo, cat, key.BatchRows) would. When dir's
// seeded-history file carries this key and a valid checksum, it installs
// the file's records and truths and runs no query (loaded). Otherwise —
// no file, a torn or flipped byte, another key — it seeds and rewrites
// the file through dio (nil means the real disk). A write the disk
// refuses comes back as saveErr and the boot is seeded all the same: the
// previous file (if any) is untouched and the next boot seeds again —
// unless only the directory sync failed, which leaves the new, whole file
// in place for the next boot to load if it survived. err is a seeding
// failure.
func LoadOrSeedAQPHistory(dio diskio.IO, dir string, key HistoryKey, repo *estimate.Repository, cat *tpch.Catalog) (loaded bool, saveErr, err error) {
	if dio == nil {
		dio = diskio.OS{}
	}
	path := filepath.Join(dir, SeededHistoryFile)
	head := appendHistoryKey(nil, seededHistoryVersion, key, tpch.AllQueries)
	if recs, truths, ok := readSeededHistory(dio, path, head); ok {
		for i, name := range tpch.AllQueries {
			cat.SetGroundTruth(name, truths[i])
			repo.AddAQP(recs[i])
		}
		return true, nil, nil
	}
	recs, err := seedAQPRecords(cat, key.BatchRows)
	if err != nil {
		return false, nil, err
	}
	body := head
	for i, name := range tpch.AllQueries {
		repo.AddAQP(recs[i])
		truth, err := cat.GroundTruth(name) // cached by the seeding pass
		if err != nil {
			return false, nil, err
		}
		body = appendHistoryRecord(body, recs[i])
		body = aqp.AppendSnapshot(body, truth)
	}
	return false, core.AtomicWriteFileIO(dio, path, frameHistory(body)), nil
}

// readSeededHistory returns the records and truths of the file at path
// if it is a whole frame whose body opens with head; ok is false for a
// missing, damaged or stale file.
func readSeededHistory(dio diskio.IO, path string, head []byte) (recs []estimate.AQPRecord, truths []aqp.Snapshot, ok bool) {
	frame, err := dio.ReadFile(path)
	if err != nil || len(frame) < historyHeaderLen || string(frame[:4]) != historyMagic {
		return nil, nil, false
	}
	body := frame[historyHeaderLen:]
	if binary.LittleEndian.Uint32(frame[4:8]) != uint32(len(body)) ||
		binary.LittleEndian.Uint32(frame[8:12]) != crc32.ChecksumIEEE(body) ||
		!bytes.HasPrefix(body, head) {
		return nil, nil, false
	}
	d := aqp.NewDec(body[len(head):])
	for range tpch.AllQueries {
		recs = append(recs, decodeHistoryRecord(d))
		truths = append(truths, d.Snapshot())
	}
	return recs, truths, d.End() == nil
}

// appendHistoryRecord appends one history record's fields.
func appendHistoryRecord(b []byte, rec estimate.AQPRecord) []byte {
	b = aqp.AppendName(aqp.AppendName(aqp.AppendName(b, rec.ID), rec.Query), rec.Class)
	b = binary.AppendUvarint(b, uint64(rec.BatchRows))
	b = binary.AppendUvarint(b, uint64(len(rec.Curve)))
	for _, p := range rec.Curve {
		b = aqp.AppendFloat(aqp.AppendFloat(b, p.X), p.Y)
	}
	return b
}

// decodeHistoryRecord reads what appendHistoryRecord wrote.
func decodeHistoryRecord(d *aqp.Dec) estimate.AQPRecord {
	rec := estimate.AQPRecord{ID: d.Name(), Query: d.Name(), Class: d.Name()}
	if n := d.Uvarint(); n > math.MaxInt32 {
		d.Failf("batch rows %d", n)
	} else {
		rec.BatchRows = int(n)
	}
	rec.Curve = make([]estimate.Point, d.Count(16))
	for i := range rec.Curve {
		rec.Curve[i] = estimate.Point{X: d.Float(), Y: d.Float()}
	}
	return rec
}
