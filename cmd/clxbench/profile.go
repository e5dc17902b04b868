// The profile experiment: profiling throughput on the pipeline
// dataset, persisted as BENCH_profile.json so the profile hot path's
// trajectory is tracked across PRs.
//
//	clxbench -exp profile [-rows n] [-reps n] [-profile-out f] [-profile-baseline f]
//
// Each worker count is measured with runtime.GOMAXPROCS pinned to the
// requested count, so the sweep exercises the scheduler parallelism the
// worker count asks for instead of inheriting whatever the process
// started with (on a one-CPU container the pin grants scheduling slots,
// not extra cores — the recorded gomaxprocs documents exactly what ran).
// For each count the experiment reports the median-of-reps wall time,
// rows/sec, allocations per row (from runtime.MemStats deltas), how many
// shards the profile index chose (16 or 1), and
// the per-phase breakdown from cluster.ProfileWithStats. A final section
// measures the incremental-append path: re-profiling after a 5% append
// through cluster.Index versus profiling the grown column from scratch.
//
// With -profile-baseline, the fresh medians are compared against a
// previously persisted report and the process exits non-zero when
// rows/sec regresses more than profileTolerance below the baseline for
// any worker count (see `make bench-check`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"clx/internal/cluster"
	"clx/internal/dataset"
	"clx/internal/provenance"
)

var (
	profileOut = flag.String("profile-out", "BENCH_profile.json",
		"profile experiment: output JSON path ('' disables the file)")
	profileBaseline = flag.String("profile-baseline", "",
		"profile experiment: baseline BENCH_profile.json to compare against (exit 1 on >15% rows/sec regression)")
)

// profileTolerance is the allowed fractional rows/sec drop versus the
// baseline before the comparison fails: medians on shared CI hardware
// jitter by a few percent, so the band is wide enough to absorb noise but
// narrow enough to catch a real regression.
const profileTolerance = 0.15

// profilePhases is the per-phase breakdown of one run, milliseconds.
type profilePhases struct {
	IndexMS     float64 `json:"index_ms"`
	TokenizeMS  float64 `json:"tokenize_ms"`
	GroupMS     float64 `json:"group_ms"`
	ConstantsMS float64 `json:"constants_ms"`
	RefineMS    float64 `json:"refine_ms"`
}

// profileRun is one row of the report: one worker count's medians.
// Workers is the requested fan-out; GOMAXPROCS is the scheduler width the
// run was pinned to while measured.
type profileRun struct {
	Workers         int           `json:"workers"`
	GOMAXPROCS      int           `json:"gomaxprocs"`
	Sharded         bool          `json:"sharded"`
	ProfileMS       float64       `json:"profile_ms"`
	RowsPerSec      float64       `json:"rows_per_sec"`
	AllocsPerRow    float64       `json:"allocs_per_row"`
	Phases          profilePhases `json:"phases"`
	SpeedupVsSerial float64       `json:"speedup_vs_serial"`
}

// incrementalRun is the incremental-append measurement: the median cost
// of re-profiling after appending AppendRows to a BaseRows-row index,
// versus profiling the grown column from scratch. Serial workers, so the
// speedup isolates the incremental data structure, not parallelism.
type incrementalRun struct {
	BaseRows      int     `json:"base_rows"`
	AppendRows    int     `json:"append_rows"`
	FullMS        float64 `json:"full_ms"`
	IncrementalMS float64 `json:"incremental_ms"`
	SpeedupVsFull float64 `json:"speedup_vs_full"`
}

// profileReport is the persisted BENCH_profile.json document.
type profileReport struct {
	GeneratedUnix  int64                 `json:"generated_unix"`
	Provenance     provenance.Provenance `json:"provenance"`
	Rows           int                   `json:"rows"`
	DistinctValues int                   `json:"distinct_values"`
	LeafPatterns   int                   `json:"leaf_patterns"`
	// DistinctPatternRatio is leaf patterns / rows — the redundancy the
	// distinct-value index collapses (1.0 would mean every row has its own
	// pattern).
	DistinctPatternRatio float64         `json:"distinct_pattern_ratio"`
	Reps                 int             `json:"reps"`
	Runs                 []profileRun    `json:"runs"`
	Incremental          *incrementalRun `json:"incremental,omitempty"`
}

func profileExperiment() {
	rows, _ := dataset.Phones(*pipelineRows, 6, 77)
	reps := *pipelineReps
	fmt.Printf("== Profile: distinct-value index (rows=%d, NumCPU=%d, median of %d) ==\n",
		len(rows), runtime.NumCPU(), reps)
	fmt.Printf("%8s %11s %8s %12s %12s %10s %9s  %s\n",
		"workers", "gomaxprocs", "shards", "profile", "rows/sec", "allocs/row", "speedup",
		"phases (idx/tok/grp/const/refine ms)")

	report := profileReport{
		GeneratedUnix: time.Now().Unix(),
		Provenance:    provenance.Collect(),
		Rows:          len(rows),
		Reps:          reps,
	}
	prev := runtime.GOMAXPROCS(0)
	for _, w := range pipelineSweep() {
		// Pin the scheduler to the worker count under test so the run
		// measures the parallelism it requested.
		runtime.GOMAXPROCS(w)
		run, st := timeProfile(rows, w, reps)
		report.DistinctValues = st.DistinctValues
		report.LeafPatterns = st.LeafPatterns
		report.DistinctPatternRatio = float64(st.LeafPatterns) / float64(len(rows))
		if len(report.Runs) == 0 {
			run.SpeedupVsSerial = 1
		} else {
			run.SpeedupVsSerial = report.Runs[0].ProfileMS / run.ProfileMS
		}
		report.Runs = append(report.Runs, run)
		shards := "1"
		if run.Sharded {
			shards = "16"
		}
		fmt.Printf("%8d %11d %8s %10.2fms %12.0f %10.2f %8.2fx  %.2f/%.2f/%.2f/%.2f/%.2f\n",
			run.Workers, run.GOMAXPROCS, shards, run.ProfileMS, run.RowsPerSec,
			run.AllocsPerRow, run.SpeedupVsSerial,
			run.Phases.IndexMS, run.Phases.TokenizeMS, run.Phases.GroupMS,
			run.Phases.ConstantsMS, run.Phases.RefineMS)
	}
	runtime.GOMAXPROCS(prev)
	fmt.Printf("distinct values %d, leaf patterns %d (pattern ratio %.5f)\n",
		report.DistinctValues, report.LeafPatterns, report.DistinctPatternRatio)

	inc := timeIncremental(rows, reps)
	report.Incremental = &inc
	fmt.Printf("incremental re-profile: %d rows + %d appended: full %.2fms, incremental %.2fms (%.1fx)\n",
		inc.BaseRows, inc.AppendRows, inc.FullMS, inc.IncrementalMS, inc.SpeedupVsFull)

	if *profileBaseline != "" {
		if err := compareBaseline(report, *profileBaseline); err != nil {
			fmt.Fprintln(os.Stderr, "clxbench: profile baseline:", err)
			os.Exit(1)
		}
	}
	if *profileOut == "" {
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "clxbench: encode profile report:", err)
		return
	}
	if err := os.WriteFile(*profileOut, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "clxbench: write profile report:", err)
		return
	}
	fmt.Printf("wrote %s\n", *profileOut)
}

// timeProfile runs Profile reps times (after one warm-up) at the given
// worker count and reports per-stat medians plus an allocation count
// measured on a dedicated run.
func timeProfile(rows []string, workers, reps int) (profileRun, *cluster.Stats) {
	co := cluster.DefaultOptions()
	co.Workers = workers
	run := profileRun{Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// Warm-up: page in the data and let the runtime settle.
	_, last := cluster.ProfileWithStats(rows, co)
	run.Sharded = last.Sharded

	totals := make([]float64, 0, reps)
	var idx, tok, grp, cst, ref []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		_, st := cluster.ProfileWithStats(rows, co)
		totals = append(totals, ms(time.Since(t0)))
		idx = append(idx, ms(st.Index))
		tok = append(tok, ms(st.Tokenize))
		grp = append(grp, ms(st.Group))
		cst = append(cst, ms(st.Constants))
		ref = append(ref, ms(st.Refine))
		last = st
	}
	run.ProfileMS = median(totals)
	run.RowsPerSec = float64(len(rows)) / (run.ProfileMS / 1e3)
	run.Phases = profilePhases{
		IndexMS:     median(idx),
		TokenizeMS:  median(tok),
		GroupMS:     median(grp),
		ConstantsMS: median(cst),
		RefineMS:    median(ref),
	}

	// Allocations per row, via the global Mallocs counter (covers worker
	// goroutines too).
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cluster.Profile(rows, co)
	runtime.ReadMemStats(&m1)
	run.AllocsPerRow = float64(m1.Mallocs-m0.Mallocs) / float64(len(rows))
	return run, last
}

// timeIncremental measures a 5% append: the median cost of folding the
// appended rows into an already-profiled cluster.Index and re-profiling,
// versus profiling the full grown column from scratch. Both sides run
// serially so the comparison isolates the incremental index.
func timeIncremental(rows []string, reps int) incrementalRun {
	cut := len(rows) * 95 / 100
	co := cluster.DefaultOptions()
	co.Workers = 1
	out := incrementalRun{BaseRows: cut, AppendRows: len(rows) - cut}

	full := make([]float64, 0, reps)
	incr := make([]float64, 0, reps)
	cluster.Profile(rows, co) // warm-up
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		cluster.Profile(rows, co)
		full = append(full, ms(time.Since(t0)))

		ix := cluster.NewIndex(co)
		ix.Add(rows[:cut])
		ix.Profile()
		t0 = time.Now()
		ix.Add(rows[cut:])
		ix.Profile()
		incr = append(incr, ms(time.Since(t0)))
	}
	out.FullMS = median(full)
	out.IncrementalMS = median(incr)
	if out.IncrementalMS > 0 {
		out.SpeedupVsFull = out.FullMS / out.IncrementalMS
	}
	return out
}

// compareBaseline checks the fresh report's rows/sec medians against a
// persisted baseline, per worker count, and returns an error naming every
// count that regressed more than profileTolerance. Worker counts present
// on only one side are reported but don't fail the check, so the sweep
// can evolve without invalidating old baselines.
func compareBaseline(fresh profileReport, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base profileReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	baseBy := make(map[int]profileRun, len(base.Runs))
	for _, r := range base.Runs {
		baseBy[r.Workers] = r
	}
	fmt.Printf("baseline check vs %s (tolerance %.0f%%):\n", path, profileTolerance*100)
	var regressed []string
	for _, r := range fresh.Runs {
		b, ok := baseBy[r.Workers]
		if !ok {
			fmt.Printf("  workers=%d: no baseline entry, skipped\n", r.Workers)
			continue
		}
		floor := b.RowsPerSec * (1 - profileTolerance)
		delta := 100 * (r.RowsPerSec - b.RowsPerSec) / b.RowsPerSec
		status := "ok"
		if r.RowsPerSec < floor {
			status = "REGRESSED"
			regressed = append(regressed,
				fmt.Sprintf("workers=%d: %.0f rows/sec vs baseline %.0f (%.1f%%)",
					r.Workers, r.RowsPerSec, b.RowsPerSec, delta))
		}
		fmt.Printf("  workers=%d: %.0f rows/sec vs baseline %.0f (%+.1f%%) %s\n",
			r.Workers, r.RowsPerSec, b.RowsPerSec, delta, status)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("rows/sec regressed beyond %.0f%%: %v",
			profileTolerance*100, regressed)
	}
	return nil
}

// median returns the median of vs (mean of the middle pair for even
// lengths). vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}
