// Process-wide automaton-compilation counters, backed by internal/obs so
// the same numbers serve GET /v1/stats (JSON) and GET /metrics
// (Prometheus text). A deployment watches the fallback counter: a nonzero
// rate means some applied programs still run through the backtracking
// reference engine instead of the fused automaton. Saved programs compile
// on first apply, so both counters count first-use compiles.
package automaton

import "clx/internal/obs"

var (
	mCompiled = obs.NewCounter("clx_automaton_compiled_total",
		"Guarded programs successfully compiled to fused byte automata, counted at each program's first apply.")
	mFallback = obs.NewCounter("clx_automaton_fallback_total",
		"Guarded programs the automaton compiler could not lower at first apply (served by the backtracking engine).")
)

// Counters is a snapshot of the process-wide compilation totals.
type Counters struct {
	// Compiled counts programs lowered to automata; Fallback counts
	// programs that stayed on the backtracking reference engine.
	Compiled int64 `json:"compiled"`
	Fallback int64 `json:"fallback"`
}

// GlobalStats returns a snapshot of the process-wide counters.
func GlobalStats() Counters {
	return Counters{Compiled: mCompiled.Value(), Fallback: mFallback.Value()}
}

// ResetGlobalStats zeroes the process counters (tests and benchmarks).
func ResetGlobalStats() {
	mCompiled.Reset()
	mFallback.Reset()
}
