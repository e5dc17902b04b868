// Lowering a guarded UniFi program into the Machine's tables: token
// lowering, the Glushkov position NFA over every case at once, the byte →
// alphabet-class map, and the subset-construction dispatch DFA. All of it
// runs once per loaded program, on its first apply; none of it runs on
// the per-row path.
package automaton

import (
	"fmt"

	"clx/internal/pattern"
	"clx/internal/token"
	"clx/internal/unifi"
)

// Compilation caps. A program exceeding any of them falls back to the
// backtracking engine — correctness is never at stake, only the fused hot
// path. The caps are far above anything the synthesizer emits (benchmark
// programs run a handful of cases with one or two dozen tokens each).
const (
	// maxCases bounds the Switch width: case acceptance is a uint64
	// bitmask, bit i = case i, lowest set bit = first-case priority.
	maxCases = 64
	// maxUnits bounds the position NFA (one unit per consumed byte
	// position; '+' tokens contribute one unit per repeat-unit byte).
	maxUnits = 2048
	// maxStates bounds the subset-construction DFA.
	maxStates = 4096
)

// Lowered token kinds.
const (
	tFixedLit   uint8 = iota // exact byte string (literal, natural quantifier)
	tFixedClass              // exactly length bytes of class
	tPlusClass               // one or more bytes of class
	tPlusLit                 // one or more repetitions of lit
)

// ctok is a lowered pattern token.
type ctok struct {
	kind  uint8
	class token.Class
	// lit holds the expanded bytes (tFixedLit) or the repeat unit
	// (tPlusLit).
	lit string
	// length is the consumed byte count for fixed kinds and the repeat-unit
	// length for tPlusLit.
	length int
}

// Render-op kinds.
const (
	rConst        uint8 = iota // append a constant string
	rExtract                   // append the subject bytes spanning tokens i..j
	rExtractFixed              // append s[i:j] — token offsets resolved at compile time
	rErr                       // fail with a precomputed plan error
)

// rop is one lowered replace-plan operator.
type rop struct {
	kind uint8
	s    string
	i, j int
	err  error
}

// caseProg is one lowered Switch case.
type caseProg struct {
	toks []ctok
	// identity marks the synthetic target case CompileSaved prepends:
	// matching rows pass through unchanged.
	identity bool
	// guardTok/guardVal are the lowered TokenIs guard (guardTok 0 =
	// unguarded): the winning spans' guardTok-th token text must equal
	// guardVal.
	guardTok int
	guardVal string
	// dead marks cases that can never apply (guard token out of range);
	// they are excluded from dispatch entirely.
	dead bool
	// render is the flat op program; needSpans reports whether selection
	// must recover token spans (a guard or an extract op).
	render    []rop
	needSpans bool
	// fixedOffsets holds the cumulative byte offsets of a pattern with no
	// '+' tokens (len(toks)+1 entries): span i is
	// [fixedOffsets[i], fixedOffsets[i+1]) with no recovery scan at all.
	fixedOffsets []int
}

// Compile lowers gp — all cases at once — into a fused dispatch/guard/
// extract automaton. The error names the construct that could not be
// lowered (a non-TokenIs guard, more than 64 cases, a compilation cap);
// callers keep the backtracking engine for those programs. Outcomes are
// counted process-wide (GlobalStats, clx_automaton_* metrics).
func Compile(gp unifi.GuardedProgram) (*Machine, error) {
	m, err := compile(nil, gp)
	count(err)
	return m, err
}

// CompileSaved is Compile with the saved program's target pattern fused in
// as a highest-priority identity case: rows already in the target format
// pass through unchanged, which folds SavedProgram's separate target-match
// scan into the same single dispatch pass.
func CompileSaved(target pattern.Pattern, gp unifi.GuardedProgram) (*Machine, error) {
	m, err := compile(&target, gp)
	count(err)
	return m, err
}

func count(err error) {
	if err != nil {
		mFallback.Inc()
	} else {
		mCompiled.Inc()
	}
}

func compile(target *pattern.Pattern, gp unifi.GuardedProgram) (*Machine, error) {
	nCases := len(gp.Cases)
	if target != nil {
		nCases++
	}
	if nCases > maxCases {
		return nil, fmt.Errorf("automaton: %d cases exceeds the %d-case cap", nCases, maxCases)
	}
	m := &Machine{cases: make([]caseProg, 0, nCases)}
	if target != nil {
		toks, err := lowerTokens(target.Tokens())
		if err != nil {
			return nil, err
		}
		m.cases = append(m.cases, caseProg{toks: toks, identity: true, fixedOffsets: fixedOffsets(toks)})
	}
	for _, c := range gp.Cases {
		cp, err := lowerCase(c)
		if err != nil {
			return nil, err
		}
		m.cases = append(m.cases, cp)
	}
	for _, c := range m.cases {
		if len(c.toks) > m.maxToks {
			m.maxToks = len(c.toks)
		}
	}
	if err := buildDFA(m); err != nil {
		return nil, err
	}
	return m, nil
}

// lowerCase lowers one guarded case: pattern tokens, guard, and plan.
func lowerCase(c unifi.GuardedCase) (caseProg, error) {
	toks, err := lowerTokens(c.Source.Tokens())
	if err != nil {
		return caseProg{}, err
	}
	cp := caseProg{toks: toks, fixedOffsets: fixedOffsets(toks)}
	if c.Guard != nil {
		ti, ok := c.Guard.(unifi.TokenIs)
		if !ok {
			return caseProg{}, fmt.Errorf("automaton: cannot lower guard %T", c.Guard)
		}
		if ti.I < 1 || ti.I > len(toks) {
			// The guard can never hold (TokenIs.holdsSpans rejects the
			// range), so the case can never apply: compile it out of
			// dispatch instead of re-checking per row.
			cp.dead = true
			return cp, nil
		}
		cp.guardTok, cp.guardVal = ti.I, ti.Value
	}
	cp.render, err = lowerPlan(c.Plan, len(toks))
	if err != nil {
		return caseProg{}, err
	}
	if cp.fixedOffsets != nil {
		// Every token boundary is known at compile time: bind extract ops
		// straight to subject byte offsets (the guard reads fixedOffsets in
		// the selection loop) so matching rows render with no span
		// materialization at all.
		for k, op := range cp.render {
			if op.kind == rExtract {
				cp.render[k] = rop{kind: rExtractFixed,
					i: cp.fixedOffsets[op.i-1], j: cp.fixedOffsets[op.j]}
			}
		}
		return cp, nil
	}
	cp.needSpans = cp.guardTok > 0
	for _, op := range cp.render {
		if op.kind == rExtract {
			cp.needSpans = true
		}
	}
	return cp, nil
}

// lowerTokens lowers a pattern's token sequence.
func lowerTokens(toks []token.Token) ([]ctok, error) {
	out := make([]ctok, 0, len(toks))
	for _, t := range toks {
		if t.Quant != token.Plus && t.Quant < 1 {
			return nil, fmt.Errorf("automaton: cannot lower token %s (quantifier %d)", t, t.Quant)
		}
		if t.IsLiteral() && len(t.Lit) == 0 {
			return nil, fmt.Errorf("automaton: cannot lower empty literal token")
		}
		switch {
		case t.IsLiteral() && t.Quant == token.Plus:
			out = append(out, ctok{kind: tPlusLit, lit: t.Lit, length: len(t.Lit)})
		case t.IsLiteral():
			lit := t.Expand()
			out = append(out, ctok{kind: tFixedLit, lit: lit, length: len(lit)})
		case t.Quant == token.Plus:
			out = append(out, ctok{kind: tPlusClass, class: t.Class})
		default:
			out = append(out, ctok{kind: tFixedClass, class: t.Class, length: t.Quant})
		}
	}
	return out, nil
}

// fixedOffsets precomputes span boundaries for a pattern with no '+'
// tokens; nil when any token has one.
func fixedOffsets(toks []ctok) []int {
	off := make([]int, len(toks)+1)
	for i, t := range toks {
		if t.kind == tPlusClass || t.kind == tPlusLit {
			return nil
		}
		off[i+1] = off[i] + t.length
	}
	return off
}

// lowerPlan flattens a replace plan. An operator the evaluator would
// reject at run time (an out-of-range Extract) lowers to an rErr op
// carrying the exact error the reference engine produces, positioned so
// ops before it still render — parity for the partial-append contract of
// CompiledGuardedProgram.AppendApply.
func lowerPlan(p unifi.Plan, nTokens int) ([]rop, error) {
	out := make([]rop, 0, len(p.Ops))
	for _, op := range p.Ops {
		switch op := op.(type) {
		case unifi.ConstStr:
			out = append(out, rop{kind: rConst, s: op.S})
		case unifi.Extract:
			if op.I < 1 || op.J > nTokens || op.I > op.J {
				out = append(out, rop{kind: rErr, err: fmt.Errorf(
					"unifi: Extract(%d,%d) out of range for source of %d tokens",
					op.I, op.J, nTokens)})
				return out, nil // nothing after the failing op runs
			}
			out = append(out, rop{kind: rExtract, i: op.I, j: op.J})
		default:
			return nil, fmt.Errorf("automaton: cannot lower operator %T", op)
		}
	}
	return out, nil
}

// unit is one position of the Glushkov NFA: it consumes exactly one byte
// (an exact literal byte or any byte of a base class).
type unit struct {
	isByte bool
	b      byte
	class  token.Class
	// follow lists the units that may consume the next byte.
	follow []int32
	// end is the case-acceptance mask: bits of cases this unit can finish.
	end uint64
}

// buildNFA expands every live case into units, returning the units, the
// set of possible first units, and the mask of cases matching the empty
// subject.
func buildNFA(m *Machine) (units []unit, firsts []int32, emptyMask uint64, err error) {
	for ci, c := range m.cases {
		if c.dead {
			continue
		}
		if len(c.toks) == 0 {
			emptyMask |= 1 << uint(ci)
			continue
		}
		var prevExits []int32
		var caseEntry int32 = -1
		for ti, t := range c.toks {
			entry, exits, terr := addToken(&units, t)
			if terr != nil {
				return nil, nil, 0, terr
			}
			if ti == 0 {
				caseEntry = entry
			}
			for _, x := range prevExits {
				units[x].follow = append(units[x].follow, entry)
			}
			prevExits = exits
		}
		firsts = append(firsts, caseEntry)
		for _, x := range prevExits {
			units[x].end |= 1 << uint(ci)
		}
	}
	return units, firsts, emptyMask, nil
}

// addToken appends the units of one lowered token and returns its entry
// unit and exit units (whose follow sets the next token's entry joins).
func addToken(units *[]unit, t ctok) (int32, []int32, error) {
	add := func(u unit) (int32, error) {
		if len(*units) >= maxUnits {
			return 0, fmt.Errorf("automaton: pattern union exceeds the %d-position cap", maxUnits)
		}
		*units = append(*units, u)
		return int32(len(*units) - 1), nil
	}
	chain := func(n int, mk func(i int) unit) (int32, int32, error) {
		var first, last int32
		for i := 0; i < n; i++ {
			id, err := add(mk(i))
			if err != nil {
				return 0, 0, err
			}
			if i == 0 {
				first = id
			} else {
				(*units)[last].follow = append((*units)[last].follow, id)
			}
			last = id
		}
		return first, last, nil
	}
	switch t.kind {
	case tFixedLit:
		first, last, err := chain(len(t.lit), func(i int) unit { return unit{isByte: true, b: t.lit[i]} })
		return first, []int32{last}, err
	case tFixedClass:
		first, last, err := chain(t.length, func(int) unit { return unit{class: t.class} })
		return first, []int32{last}, err
	case tPlusClass:
		id, err := add(unit{class: t.class})
		if err != nil {
			return 0, nil, err
		}
		(*units)[id].follow = append((*units)[id].follow, id) // self-loop
		return id, []int32{id}, nil
	case tPlusLit:
		first, last, err := chain(len(t.lit), func(i int) unit { return unit{isByte: true, b: t.lit[i]} })
		if err != nil {
			return 0, nil, err
		}
		// Whole repetitions only: the loop closes from the last byte back
		// to the first.
		(*units)[last].follow = append((*units)[last].follow, first)
		return first, []int32{last}, nil
	}
	return 0, nil, fmt.Errorf("automaton: unknown lowered token kind %d", t.kind)
}

// buildAlphabet partitions the 256 byte values into equivalence classes:
// two bytes share a class iff every unit predicate treats them alike. The
// 128 ASCII entries carry the token-class structure (the same table-driven
// move as tokenize's classify table); bytes >= 0x80 can only be accepted
// by literal units, so they map to singleton literal classes or to the
// shared reject class.
func buildAlphabet(m *Machine, units []unit) error {
	var usedClasses []token.Class
	seen := map[token.Class]bool{}
	var litByte [256]bool
	for _, u := range units {
		if u.isByte {
			litByte[u.b] = true
		} else if !seen[u.class] {
			seen[u.class] = true
			usedClasses = append(usedClasses, u.class)
		}
	}
	sigToClass := map[uint32]uint8{}
	next := 0
	alloc := func() (uint8, error) {
		if next > 255 {
			return 0, fmt.Errorf("automaton: alphabet exceeds 256 classes")
		}
		id := uint8(next)
		next++
		return id, nil
	}
	for b := 0; b < 256; b++ {
		if litByte[b] {
			// A byte some literal unit tests for is its own class: no other
			// byte behaves identically under the "== b" predicate.
			id, err := alloc()
			if err != nil {
				return err
			}
			m.alpha[b] = id
			continue
		}
		var sig uint32
		for i, c := range usedClasses {
			if c.Contains(rune(b)) {
				sig |= 1 << uint(i)
			}
		}
		id, ok := sigToClass[sig]
		if !ok {
			var err error
			if id, err = alloc(); err != nil {
				return err
			}
			sigToClass[sig] = id
		}
		m.alpha[b] = id
	}
	m.numClasses = next
	return nil
}

// buildDFA runs the subset construction over the position NFA: DFA states
// are sets of "just consumed" units, the start state is virtual (nothing
// consumed), and a state's acceptance mask ORs the end masks of its units.
func buildDFA(m *Machine) error {
	units, firsts, emptyMask, err := buildNFA(m)
	if err != nil {
		return err
	}
	if err := buildAlphabet(m, units); err != nil {
		return err
	}
	words := (len(units) + 63) / 64
	if words == 0 {
		words = 1
	}
	// acceptU[a] = bitset of units whose predicate accepts alphabet class a.
	acceptU := make([][]uint64, m.numClasses)
	for a := range acceptU {
		acceptU[a] = make([]uint64, words)
	}
	for b := 0; b < 256; b++ {
		a := m.alpha[b]
		for ui, u := range units {
			ok := u.isByte && u.b == byte(b) || !u.isByte && u.class.Contains(rune(b))
			if ok {
				acceptU[a][ui>>6] |= 1 << uint(ui&63)
			}
		}
	}
	followBits := make([][]uint64, len(units))
	for ui, u := range units {
		fb := make([]uint64, words)
		for _, f := range u.follow {
			fb[f>>6] |= 1 << uint(f&63)
		}
		followBits[ui] = fb
	}
	firstBits := make([]uint64, words)
	for _, f := range firsts {
		firstBits[f>>6] |= 1 << uint(f&63)
	}

	// State 0 is the dead state (all-zero transition row); state 1 the
	// start state. The start set is virtual — nil, never deduplicated
	// against consumed sets, its acceptance is the empty-subject mask.
	nc := m.numClasses
	sets := [][]uint64{nil, nil}
	index := map[string]uint16{}
	m.trans = make([]uint32, 2*nc)
	m.accept = []uint64{0, emptyMask}
	keyBuf := make([]byte, words*8)
	key := func(set []uint64) string {
		for i, w := range set {
			for j := 0; j < 8; j++ {
				keyBuf[i*8+j] = byte(w >> uint(8*j))
			}
		}
		return string(keyBuf)
	}
	addState := func(set []uint64) (uint16, error) {
		zero := true
		for _, w := range set {
			if w != 0 {
				zero = false
				break
			}
		}
		if zero {
			return 0, nil
		}
		k := key(set)
		if id, ok := index[k]; ok {
			return id, nil
		}
		if len(sets) >= maxStates {
			return 0, fmt.Errorf("automaton: dispatch DFA exceeds the %d-state cap", maxStates)
		}
		id := uint16(len(sets))
		cp := make([]uint64, words)
		copy(cp, set)
		sets = append(sets, cp)
		index[k] = id
		var acc uint64
		for ui := range units {
			if cp[ui>>6]&(1<<uint(ui&63)) != 0 {
				acc |= units[ui].end
			}
		}
		m.accept = append(m.accept, acc)
		m.trans = append(m.trans, make([]uint32, nc)...)
		return id, nil
	}
	cand := make([]uint64, words)
	next := make([]uint64, words)
	for st := 1; st < len(sets); st++ {
		// Candidate next units: firsts from the start state, the union of
		// follow sets otherwise.
		if st == 1 {
			copy(cand, firstBits)
		} else {
			clear(cand)
			for ui := range units {
				if sets[st][ui>>6]&(1<<uint(ui&63)) != 0 {
					fb := followBits[ui]
					for w := range cand {
						cand[w] |= fb[w]
					}
				}
			}
		}
		for a := 0; a < nc; a++ {
			au := acceptU[a]
			for w := range next {
				next[w] = cand[w] & au[w]
			}
			id, err := addState(next)
			if err != nil {
				return err
			}
			// Premultiplied by the class count: the scan loop indexes
			// trans[st+class] with no per-byte multiply.
			m.trans[st*nc+a] = uint32(id) * uint32(nc)
		}
	}
	m.states = len(sets)
	return nil
}
