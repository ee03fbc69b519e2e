package experiments

import (
	"fmt"
	"strings"
	"time"

	"rotary/internal/core"
	"rotary/internal/workload"
)

// Table3Row is one workload size's overhead measurement: the virtual
// makespan of the workload against the real wall-clock time spent inside
// TTR, TEE and TME — the paper's point being that the recorders and
// estimators cost an imperceptible fraction of the processing time.
type Table3Row struct {
	WorkloadSize    int
	OverallRunSecs  float64 // virtual seconds of workload processing
	TTROverhead     time.Duration
	TEEOverhead     time.Duration
	TMEOverhead     time.Duration
	TTRCallsPerHour float64
}

// Table3Result reproduces Table III.
type Table3Result struct {
	Rows []Table3Row
	Text string
}

// Table3 regenerates Table III over workload sizes 10, 20, 30 and 40
// under adaptive Rotary-DLT.
func Table3(cfg Config) (*Table3Result, error) {
	res := &Table3Result{}
	for _, size := range []int{10, 20, 30, 40} {
		specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(size, cfg.Seed))
		if err != nil {
			return nil, err
		}
		exec, sched, err := runDLTPolicy(core.DefaultDLTExecConfig(), specs, "adaptive", cfg.Seed)
		if err != nil {
			return nil, err
		}
		rotary := sched.(*core.RotaryDLT)
		row := Table3Row{
			WorkloadSize:   size,
			OverallRunSecs: exec.Engine().Now().Seconds(),
			TTROverhead:    exec.TTR().Overhead(),
			TEEOverhead:    rotary.TEE.Overhead(),
			TMEOverhead:    rotary.TME.Overhead(),
		}
		res.Rows = append(res.Rows, row)
	}
	var b strings.Builder
	b.WriteString("Table III: overall processing time and TTR/TEE/TME overhead\n")
	fmt.Fprintf(&b, "%9s %16s %14s %14s %14s\n", "workload", "overall-run(s)", "TTR", "TEE", "TME")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%9d %16.0f %14s %14s %14s\n",
			r.WorkloadSize, r.OverallRunSecs, r.TTROverhead, r.TEEOverhead, r.TMEOverhead)
	}
	res.Text = b.String()
	return res, nil
}
