package probes

import (
	"fmt"
	"path/filepath"

	"rotary/internal/serve"
)

// journalDirs lists the journal directories under a daemon's -journal
// directory: itself for a single server, shard-<i> for each shard of a
// router.
func journalDirs(journalDir string, shards int) []string {
	if shards <= 1 {
		return []string{journalDir}
	}
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(journalDir, fmt.Sprintf("shard-%d", i))
	}
	return dirs
}

// NonTerminal counts the live jobs a restart on journalDir would
// recover, by replaying the files the daemon left behind.
func NonTerminal(journalDir string, shards int) (int, error) {
	live := 0
	for _, dir := range journalDirs(journalDir, shards) {
		rec, err := serve.ReplayJournal(dir)
		if err != nil {
			return 0, err
		}
		live += len(rec.NonTerminal())
	}
	return live, nil
}
