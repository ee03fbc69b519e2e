package workload

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rotary/internal/diskio"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
)

// historyBoot is one boot's LoadOrSeedAQPHistory over a fresh catalog of
// ds and a fresh repository.
func historyBoot(t *testing.T, dio diskio.IO, dir string, ds *tpch.Dataset, key HistoryKey) (*estimate.Repository, *tpch.Catalog, bool) {
	t.Helper()
	repo, cat := estimate.NewRepository(), tpch.NewCatalog(ds, key.CatalogSeed)
	loaded, saveErr, err := LoadOrSeedAQPHistory(dio, dir, key, repo, cat)
	if err != nil || saveErr != nil {
		t.Fatalf("boot: save %v, seed %v", saveErr, err)
	}
	return repo, cat, loaded
}

// sameSeeding fails unless repo and cat's truths are bit for bit what a
// fresh SeedAQPHistory leaves on a second catalog.
func sameSeeding(t *testing.T, repo *estimate.Repository, cat *tpch.Catalog, ds *tpch.Dataset, key HistoryKey) {
	t.Helper()
	want, wantCat := estimate.NewRepository(), tpch.NewCatalog(ds, key.CatalogSeed)
	if err := SeedAQPHistory(want, wantCat, key.BatchRows); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repo, want) {
		t.Error("repository differs from a fresh seeding's")
	}
	for _, name := range tpch.AllQueries {
		if allocs := firstCallAllocs(func() { cat.GroundTruth(name) }); allocs != 0 {
			t.Errorf("%s: GroundTruth allocates %d times, want a cache hit", name, allocs)
		}
		got, _ := cat.GroundTruth(name)
		w, _ := wantCat.GroundTruth(name)
		if !sameBits(got, w) {
			t.Errorf("%s: truth differs from a fresh seeding's", name)
		}
	}
}

// The first boot over a directory seeds and writes the file; the next
// boot loads it, and what it installs is bit-identical to a seeding.
func TestLoadOrSeedAQPHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := tpch.Generate(0.005, 1)
	key := HistoryKey{SF: 0.005, DatasetSeed: 1, CatalogSeed: 3, BatchRows: 500}
	repo, cat, loaded := historyBoot(t, nil, dir, ds, key)
	if loaded {
		t.Fatal("a directory without a file loaded")
	}
	if _, err := os.Stat(filepath.Join(dir, SeededHistoryFile)); err != nil {
		t.Fatalf("seeding wrote no file: %v", err)
	}
	sameSeeding(t, repo, cat, ds, key)
	repo, cat, loaded = historyBoot(t, nil, dir, ds, key)
	if !loaded {
		t.Fatal("second boot seeded again")
	}
	sameSeeding(t, repo, cat, ds, key)
}

// rekey rewrites the file in dir with its key replaced by head.
func rekey(t *testing.T, dir string, oldHead, head []byte) {
	t.Helper()
	path := filepath.Join(dir, SeededHistoryFile)
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[historyHeaderLen:]
	if !slices.Equal(body[:len(oldHead)], oldHead) {
		t.Fatal("file does not open with the key it was written under")
	}
	body = append(slices.Clip(head), body[len(oldHead):]...)
	if err := os.WriteFile(path, frameHistory(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Every field of the key, and every kind of damage to the frame, makes
// the boot seed and rewrite the file for its own key.
func TestLoadOrSeedAQPHistoryReseeds(t *testing.T) {
	ds := tpch.Generate(0.005, 1)
	key := HistoryKey{SF: 0.005, DatasetSeed: 1, CatalogSeed: 1, BatchRows: 500}
	head := appendHistoryKey(nil, seededHistoryVersion, key, tpch.AllQueries)
	path := func(dir string) string { return filepath.Join(dir, SeededHistoryFile) }
	cases := map[string]func(t *testing.T, dir string){
		"version": func(t *testing.T, dir string) {
			rekey(t, dir, head, appendHistoryKey(nil, seededHistoryVersion+1, key, tpch.AllQueries))
		},
		"queries": func(t *testing.T, dir string) {
			rekey(t, dir, head, appendHistoryKey(nil, seededHistoryVersion, key, tpch.AllQueries[:21]))
		},
		"sf": func(t *testing.T, dir string) {
			k := key
			k.SF = 0.02
			rekey(t, dir, head, appendHistoryKey(nil, seededHistoryVersion, k, tpch.AllQueries))
		},
		"dataset seed": func(t *testing.T, dir string) {
			k := key
			k.DatasetSeed = 2
			rekey(t, dir, head, appendHistoryKey(nil, seededHistoryVersion, k, tpch.AllQueries))
		},
		"catalog seed": func(t *testing.T, dir string) {
			k := key
			k.CatalogSeed = 2
			rekey(t, dir, head, appendHistoryKey(nil, seededHistoryVersion, k, tpch.AllQueries))
		},
		"batch rows": func(t *testing.T, dir string) {
			k := key
			k.BatchRows = 501
			rekey(t, dir, head, appendHistoryKey(nil, seededHistoryVersion, k, tpch.AllQueries))
		},
		"flipped byte": func(t *testing.T, dir string) {
			b, _ := os.ReadFile(path(dir))
			b[len(b)/2] ^= 1
			os.WriteFile(path(dir), b, 0o644)
		},
		"torn tail": func(t *testing.T, dir string) {
			b, _ := os.ReadFile(path(dir))
			os.WriteFile(path(dir), b[:len(b)-1], 0o644)
		},
		"bad magic": func(t *testing.T, dir string) {
			b, _ := os.ReadFile(path(dir))
			b[0] = 'X'
			os.WriteFile(path(dir), b, 0o644)
		},
		"empty": func(t *testing.T, dir string) {
			os.WriteFile(path(dir), nil, 0o644)
		},
	}
	for name, spoil := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			historyBoot(t, nil, dir, ds, key)
			spoil(t, dir)
			repo, cat, loaded := historyBoot(t, nil, dir, ds, key)
			if loaded {
				t.Fatal("loaded a file that does not match")
			}
			sameSeeding(t, repo, cat, ds, key)
			if _, _, loaded := historyBoot(t, nil, dir, ds, key); !loaded {
				t.Error("the re-seeding boot did not rewrite the file")
			}
		})
	}
}

// A write the disk refuses does not fail the boot: it is seeded, the
// refusal is reported, and no file is left behind.
func TestLoadOrSeedAQPHistoryRefusedWrite(t *testing.T) {
	dir := t.TempDir()
	ds := tpch.Generate(0.005, 1)
	key := HistoryKey{SF: 0.005, DatasetSeed: 1, CatalogSeed: 1, BatchRows: 500}
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 1})
	faulty.ForceFail(nil)
	repo, cat := estimate.NewRepository(), tpch.NewCatalog(ds, key.CatalogSeed)
	loaded, saveErr, err := LoadOrSeedAQPHistory(faulty, dir, key, repo, cat)
	if err != nil || loaded || !diskio.IsInjected(saveErr) {
		t.Fatalf("loaded %v, save %v, seed %v; want a seeded boot and the injected refusal", loaded, saveErr, err)
	}
	sameSeeding(t, repo, cat, ds, key)
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused write left %d files, first %s", len(entries), entries[0].Name())
	}
}

// dirSyncFails is the real disk whose directory fsyncs alone fail.
type dirSyncFails struct{ diskio.IO }

func (dirSyncFails) SyncDir(string) error { return errors.New("injected directory sync failure") }

// A history file whose directory sync fails is reported as not saved —
// its name may not survive a crash — and the boot goes on seeded. The
// renamed file is whole, so a later boot that finds it loads it.
func TestLoadOrSeedAQPHistoryUnsyncedDir(t *testing.T) {
	dir := t.TempDir()
	ds := tpch.Generate(0.005, 1)
	key := HistoryKey{SF: 0.005, DatasetSeed: 1, CatalogSeed: 1, BatchRows: 500}
	repo, cat := estimate.NewRepository(), tpch.NewCatalog(ds, key.CatalogSeed)
	loaded, saveErr, err := LoadOrSeedAQPHistory(dirSyncFails{diskio.OS{}}, dir, key, repo, cat)
	if err != nil || loaded || saveErr == nil {
		t.Fatalf("loaded %v, save %v, seed %v; want a seeded boot and the directory-sync error", loaded, saveErr, err)
	}
	sameSeeding(t, repo, cat, ds, key)
	repo, cat, loaded = historyBoot(t, nil, dir, ds, key)
	if !loaded {
		t.Fatal("the renamed file did not load")
	}
	sameSeeding(t, repo, cat, ds, key)
}
