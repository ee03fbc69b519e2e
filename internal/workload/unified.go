package workload

import (
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
)

// SubmitUnified builds the §VI unified cluster at cluster-wide threshold
// T over cat and submits a mixed workload to it: a Table I workload of
// aqpJobs and a Table II workload of dltJobs, both drawn from seed. The
// shared repository is seeded with the catalog's AQP history and 30 DLT
// history jobs. Run it with Run or RunSampled.
func SubmitUnified(cat *tpch.Catalog, threshold float64, aqpJobs, dltJobs int, seed uint64) (*core.UnifiedExecutor, error) {
	repo := estimate.NewRepository()
	if err := SeedAQPHistory(repo, cat, RecommendedBatchRows(cat)); err != nil {
		return nil, err
	}
	if err := SeedDLTHistory(repo, 30, 30, seed); err != nil {
		return nil, err
	}
	u := core.NewUnifiedExecutor(core.UnifiedExecConfig{
		AQP:       core.DefaultAQPExecConfig(DefaultAQPMemoryMB(cat)),
		DLT:       core.DefaultDLTExecConfig(),
		Threshold: threshold,
	}, repo)
	wcfg := DefaultAQPWorkload(aqpJobs, seed)
	wcfg.BatchRows = RecommendedBatchRows(cat)
	if _, err := SubmitAQP(cat, GenerateAQP(wcfg), u.SubmitAQP); err != nil {
		return nil, err
	}
	dltSpecs, err := GenerateDLT(DefaultDLTWorkload(dltJobs, seed))
	if err != nil {
		return nil, err
	}
	if _, err := SubmitDLT(dltSpecs, u.SubmitDLT); err != nil {
		return nil, err
	}
	return u, nil
}
