package clx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"clx/internal/automaton"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/rematch"
	"clx/internal/unifi"
)

// SavedProgram is a verified transformation serialized for later use:
// synthesize and verify once during wrangling, then ship the program to a
// pipeline and apply it without re-synthesis. The JSON form is
// human-auditable — it is the same Replace-operation content the user
// verified.
type SavedProgram struct {
	target pattern.Pattern
	prog   unifi.GuardedProgram
	// compiled and targetM bind the program's matchers once at load, so
	// the per-row hot path of Apply never rebuilds compile-cache keys.
	compiled *unifi.CompiledGuardedProgram
	targetM  *rematch.Compiled
	// auto is the program fused into a single byte automaton (target
	// identity case + every guarded case, one scan per row), compiled on
	// first use and shared by copies of the program. Its machine is nil
	// when the compiler can't lower the program; the backtracking engine
	// above then serves it — counted in automaton.GlobalStats.
	auto *lazyMachine
	// noAuto pins this program to the reference engine (DisableAutomaton).
	noAuto bool
	// Workers bounds the goroutine fan-out of Transform: 0 uses one worker
	// per CPU, 1 runs serially. Output is identical for every setting.
	Workers int
}

type savedJSON struct {
	Target string          `json:"target"`
	Cases  json.RawMessage `json:"cases"`
}

// Export serializes the transformation (with any repairs and guarded cases
// applied) for LoadProgram.
func (t *Transformation) Export() ([]byte, error) {
	var progBuf bytes.Buffer
	progEnc := json.NewEncoder(&progBuf)
	progEnc.SetEscapeHTML(false)
	if err := progEnc.Encode(t.guardedProgram()); err != nil {
		return nil, err
	}
	progRaw := progBuf.Bytes()
	var pj struct {
		Cases json.RawMessage `json:"cases"`
	}
	if err := json.Unmarshal(progRaw, &pj); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "<D>3" readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(savedJSON{
		Target: t.res.Target.String(),
		Cases:  pj.Cases,
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// lazyMachine compiles a program's automaton once, on first demand.
// Registries load every program they store but serve few of them, so
// the compile (and the machine's memory) is paid only by programs that
// are applied.
type lazyMachine struct {
	once sync.Once
	m    *automaton.Machine
}

// LoadProgram deserializes a program produced by Export. The program's
// matchers are bound here; its byte automaton is compiled on first apply
// (or HasAutomaton), so loading a program that is never applied costs no
// automaton compile.
func LoadProgram(data []byte) (*SavedProgram, error) {
	var sj savedJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return nil, err
	}
	target, err := pattern.Parse(sj.Target)
	if err != nil {
		return nil, fmt.Errorf("clx: bad target in saved program: %w", err)
	}
	var prog unifi.GuardedProgram
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"cases":%s}`, sj.Cases)), &prog); err != nil {
		return nil, err
	}
	sp := &SavedProgram{
		target:   target,
		prog:     prog,
		compiled: prog.Compile(),
		targetM:  rematch.CompileCached(target.Tokens()),
		auto:     new(lazyMachine),
	}
	return sp, nil
}

// machine returns the program's automaton, compiling it on the first
// call. Best effort: a program the automaton compiler can't lower
// (counted in the fallback metric) yields nil and is served by the
// backtracking engine with identical results.
func (sp *SavedProgram) machine() *automaton.Machine {
	if sp.noAuto {
		return nil
	}
	sp.auto.once.Do(func() {
		if m, err := automaton.CompileSaved(sp.target, sp.prog); err == nil {
			sp.auto.m = m
		}
	})
	return sp.auto.m
}

// HasAutomaton reports whether the program compiled to the fused byte
// automaton, compiling it if no apply has yet; false means the
// backtracking reference engine serves it (the
// clx_automaton_fallback_total counter records why compiles got here).
func (sp *SavedProgram) HasAutomaton() bool { return sp.machine() != nil }

// DisableAutomaton forces every apply path onto the backtracking
// reference engine — the differential layer's handle for comparing the
// two engines on the same loaded program. Called before first use, the
// automaton is never compiled. Call it before sharing the program across
// goroutines.
func (sp *SavedProgram) DisableAutomaton() { sp.noAuto = true }

// autoArenas pools automaton scratch across rows, chunks, and programs;
// Machine scratch is program-independent, so one pool serves all.
var autoArenas = sync.Pool{New: func() any { return new(automaton.Arena) }}

// Target returns the program's target pattern.
func (sp *SavedProgram) Target() Pattern { return sp.target }

// Sources returns the source patterns the program's cases cover, in case
// order with duplicates removed (guarded cases share a source). Together
// with Target they are the program's recorded format profile: a row
// matching none of them is invisible to the program — the drift signal a
// registry reports at serving time.
func (sp *SavedProgram) Sources() []Pattern {
	seen := make(map[string]bool, len(sp.prog.Cases))
	out := make([]Pattern, 0, len(sp.prog.Cases))
	for _, c := range sp.prog.Cases {
		k := c.Source.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c.Source)
	}
	return out
}

// Apply transforms one value: already-clean values pass through, values of
// a known format are transformed, anything else is returned unchanged with
// ok=false.
func (sp *SavedProgram) Apply(s string) (string, bool) {
	if m := sp.machine(); m != nil {
		// One fused scan: the identity (target) case and every guarded
		// case dispatch together, so a clean row costs the same single
		// pass as a transformed one.
		out, err := m.Apply(s)
		if err != nil {
			return s, false
		}
		return out, true
	}
	if sp.targetM.Matches(s) {
		return s, true
	}
	out, err := sp.compiled.Apply(s)
	if err != nil {
		return s, false
	}
	return out, true
}

// AppendApply is Apply into a caller-owned buffer: the transformed value
// (or, for uncovered rows, the input itself) is appended to dst with no
// per-row string allocation. The appended bytes and the ok flag are
// byte-for-byte the Apply result — the invariant the streaming bulk-apply
// engine's differential suite pins against Transform.
func (sp *SavedProgram) AppendApply(dst []byte, s string) ([]byte, bool) {
	if m := sp.machine(); m != nil {
		a := autoArenas.Get().(*automaton.Arena)
		out, ok := autoAppendApply(m, a, dst, s)
		autoArenas.Put(a)
		return out, ok
	}
	if sp.targetM.Matches(s) {
		return append(dst, s...), true
	}
	mark := len(dst)
	out, err := sp.compiled.AppendApply(dst, s)
	if err != nil {
		return append(out[:mark], s...), false
	}
	return out, true
}

// autoAppendApply is AppendApply on automaton m with caller-held
// scratch: uncovered rows and plan errors truncate back to the mark and
// pass the input through, exactly like the reference path above.
func autoAppendApply(m *automaton.Machine, a *automaton.Arena, dst []byte, s string) ([]byte, bool) {
	mark := len(dst)
	out, err := m.AppendApply(dst, s, a)
	if err != nil {
		return append(out[:mark], s...), false
	}
	return out, true
}

// ChunkApplier implements the streaming engine's arena fast path
// (stream.ArenaApplier): the returned apply is AppendApply bound to
// chunk-scoped automaton scratch, acquired once here instead of once per
// row, which is what makes the steady-state streaming path allocation
// free. Without an automaton it degrades to the plain AppendApply method.
func (sp *SavedProgram) ChunkApplier() (apply func(dst []byte, s string) ([]byte, bool), release func()) {
	m := sp.machine()
	if m == nil {
		return sp.AppendApply, func() {}
	}
	a := autoArenas.Get().(*automaton.Arena)
	return func(dst []byte, s string) ([]byte, bool) {
		return autoAppendApply(m, a, dst, s)
	}, func() { autoArenas.Put(a) }
}

// Transform applies the program to a column, returning the output and the
// indices of rows left unchanged for review. Rows are applied across
// sp.Workers goroutines; output order and flagged order are identical to a
// serial scan for every worker count.
func (sp *SavedProgram) Transform(rows []string) (out []string, flagged []int) {
	defer func(t0 time.Time) { obsApplyDur.Observe(time.Since(t0)) }(time.Now())
	out = make([]string, len(rows))
	flagged = parallel.Gather(sp.Workers, len(rows), func(lo, hi int, emit func(int)) {
		for i := lo; i < hi; i++ {
			v, ok := sp.Apply(rows[i])
			out[i] = v
			if !ok {
				emit(i)
			}
		}
	})
	return out, flagged
}
