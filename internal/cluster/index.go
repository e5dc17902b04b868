// Index is the profiler behind Profile, ProfileWithStats, Initial and
// every session: a sharded, mergeable, incremental distinct-value index.
//
// Real columns repeat — a 20k-row phone column has a handful of shapes and
// often far fewer distinct strings — so the index first collapses the
// column into its distinct values with per-value row counts. Each distinct
// value is tokenized exactly once into a reused buffer and its token
// sequence is hash-consed into a dense intern.PatternID. Everything
// downstream (grouping, constant discovery, refinement) then works per
// distinct value or per pattern id instead of per row.
//
// The distinct-value space is partitioned by a hash of the value bytes
// into independent shards (the same 16-way design as internal/intern), so
// deduplication, tokenization, pattern interning, row counting, and the
// count-weighted constant-frequency map all run shard-parallel and merge
// without coordination:
//
//   - per-value row counts live in exactly one shard, so the merged
//     multiset is a concatenation, never a reconciliation;
//   - the constant-frequency map is integer-valued and increments commute,
//     so per-shard maps never need merging at all — a frequency query sums
//     one lookup per shard;
//   - pattern identity is an intern.PatternID, already stable under
//     concurrent interning.
//
// The shard count is fixed on the first Add: 16 when real parallelism is
// available and that batch is large enough to amortize shard bookkeeping,
// otherwise 1.
//
// Sharding destroys first-seen order, which is part of the user contract
// (cluster order, samples, row lists). Profile restores it with a serial
// walk over per-row shard/slot references — an array scan, not a
// re-hash — and that walk is also what makes the index *incremental*:
// rows already folded into the cached grouping are never revisited, so
// Add(rows); Profile() after an append costs O(new rows) plus the
// (sub-millisecond) refinement rounds, not a full re-profile. Output is
// byte-identical to referenceProfile for every shard count, worker count,
// and append schedule (see index_reference_test.go).
package cluster

import (
	"time"

	"clx/internal/intern"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/token"
	"clx/internal/tokenize"
)

const (
	// defaultIndexShards mirrors intern's fan-out: enough shards that
	// profile workers rarely collide, few enough that per-shard maps stay
	// cache-friendly.
	defaultIndexShards = 16
	// shardedMinRows is the first-Add batch size under which the index
	// keeps a single shard: below it, shard bookkeeping (per-chunk bucket
	// lists, goroutine handoff) costs more than it saves. See
	// TestProfileAutoCollapse.
	shardedMinRows = 4096
)

// Stats reports what one profile pass saw and where the time went, for the
// clxbench profile experiment and callers that monitor profiling cost.
type Stats struct {
	// Rows is the input column size; DistinctValues the number of unique
	// strings in it; LeafPatterns the number of initial clusters.
	Rows, DistinctValues, LeafPatterns int
	// Per-phase wall time: Index and Tokenize cover the routing and
	// absorption phases of the Adds since the previous profile; then
	// cluster grouping, constant discovery, hierarchy refinement.
	Index, Tokenize, Group, Constants, Refine time.Duration
	// Sharded reports whether the index has more than one shard. Output
	// is byte-identical either way; the flag exists for monitoring and for
	// the shard-count rule tests.
	Sharded bool
}

// slotRef names one distinct value: the shard owning it and its slot there.
type slotRef struct {
	shard, slot int32
}

// indexShard is one partition of the distinct-value space. All fields are
// owned by a single worker during Add (rows are routed to exactly one
// shard) and read-only during Profile.
type indexShard struct {
	// buckets maps a value hash to the first slot carrying it; further
	// slots with the same hash chain through next (collisions resolved by
	// string comparison). Value and chain are pointer-free, so the dedup
	// structures are invisible to the garbage collector and inserting a
	// distinct value allocates nothing beyond amortized slice growth.
	buckets map[uint64]int32
	next    []int32
	// values, counts, ids are the shard's distinct values in local
	// insertion order, their row counts, and their interned patterns.
	values []string
	counts []int
	ids    []intern.PatternID
	// groupOf caches, per slot, the global cluster index assigned by the
	// serial first-seen walk (-1 until the slot has been walked).
	groupOf []int32
	// cfreq is the count-weighted constant-frequency map over this shard's
	// values: cfreq[v] = rows whose value contains candidate substring v.
	// Nil when constant discovery is off.
	cfreq map[string]int
	// stamp marks, per slot, the last Add batch (epoch) that touched it —
	// an O(1) array probe instead of a per-row map op when batching the
	// cfreq updates of one append.
	stamp []int32
	epoch int32
}

// group is the cached grouping state of one cluster: its pattern id, its
// member distinct values in first-seen order, and its member rows in
// ascending row order. Grown incrementally; never shrinks.
type group struct {
	id      intern.PatternID
	members []slotRef
	rows    []int
}

// Index is a sharded, mergeable, incrementally-updatable profile of one
// growing column. Add appends rows (safe to call repeatedly); Profile
// materializes the same hierarchy cluster.Profile would produce on the
// concatenation of every Add so far, reusing all per-shard state so a
// small append re-profiles in time proportional to the appended rows.
//
// An Index is not safe for concurrent use by multiple goroutines; it is
// the session-scoped state behind Session.AppendAndReprofile.
type Index struct {
	opts   Options
	mask   uint64
	table  *intern.Table
	shards []indexShard
	data   []string
	rowRef []slotRef

	// Cached grouping state: rows [0, grouped) are folded in.
	grouped   int
	clusterOf map[intern.PatternID]int32
	groups    []*group

	// Add timings pending attribution to the next ProfileWithStats.
	pendIndex, pendTokenize time.Duration
}

// NewIndex returns an empty index. Its shard count is chosen by the first
// non-empty Add (see Add) and fixed for the index's lifetime.
func NewIndex(opts Options) *Index {
	return &Index{
		opts:      opts,
		table:     intern.NewTable(),
		clusterOf: make(map[intern.PatternID]int32, 64),
	}
}

// newIndexShards is NewIndex with an explicit shard count, which must be a
// power of two; the differential suite uses it to pin output equality
// across shard counts.
func newIndexShards(opts Options, shards int) *Index {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("cluster: shard count must be a power of two")
	}
	ix := NewIndex(opts)
	ix.setShards(shards)
	return ix
}

// setShards allocates n empty shards (n a power of two).
func (ix *Index) setShards(n int) {
	ix.mask = uint64(n - 1)
	ix.shards = make([]indexShard, n)
	for s := range ix.shards {
		ix.shards[s].buckets = make(map[uint64]int32)
		if ix.opts.DiscoverConstants {
			ix.shards[s].cfreq = make(map[string]int)
		}
	}
}

// Rows returns the number of rows added so far.
func (ix *Index) Rows() int { return len(ix.data) }

// DistinctValues returns the merged distinct-value count across shards.
func (ix *Index) DistinctValues() int {
	n := 0
	for s := range ix.shards {
		n += len(ix.shards[s].values)
	}
	return n
}

// DistinctCounts returns the merged counted multiset: every distinct value
// with the number of rows carrying it. It exists for conservation checks
// (fuzzing, stats endpoints); the hot paths never materialize this merge.
func (ix *Index) DistinctCounts() map[string]int {
	out := make(map[string]int, ix.DistinctValues())
	for s := range ix.shards {
		sh := &ix.shards[s]
		for d, v := range sh.values {
			out[v] += sh.counts[d]
		}
	}
	return out
}

// Add appends a copy of rows to the indexed column. Work is two parallel
// phases: route (hash every row to its shard) and absorb (each shard
// deduplicates its rows, tokenizes and interns values it has never seen,
// and bumps row counts and constant-frequency statistics). A value that
// already exists costs one hash, one bucket probe, and one count
// increment — O(new distinct values) of tokenize/intern work per append,
// not O(rows).
//
// The first non-empty Add fixes the shard count: 16 when
// parallel.Effective(Workers) >= 2 and the batch has at least
// shardedMinRows rows, otherwise 1.
func (ix *Index) Add(rows []string) {
	if len(rows) == 0 {
		return
	}
	t0 := time.Now()
	workers := parallel.Effective(ix.opts.Workers)
	if ix.shards == nil {
		n := 1
		if workers >= 2 && len(rows) >= shardedMinRows {
			n = defaultIndexShards
		}
		ix.setShards(n)
	}
	base := len(ix.data)
	ix.data = append(ix.data, rows...)
	ix.rowRef = append(ix.rowRef, make([]slotRef, len(rows))...)
	nshards := len(ix.shards)

	// Route: hash each appended row and bucket it per (chunk, shard).
	// Chunk-major lists let every shard consume its rows in global row
	// order without any cross-worker handoff — though nothing downstream
	// depends on that order; first-seen semantics come from the walk in
	// Profile, never from shard-local insertion order.
	chunks := parallel.Chunks(workers, len(rows))
	hashes := make([]uint64, len(rows))
	routed := make([][][]int32, len(chunks))
	parallel.For(workers, len(chunks), func(ci int) {
		lists := make([][]int32, nshards)
		for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
			h := intern.HashString(rows[i])
			hashes[i] = h
			s := h & ix.mask
			lists[s] = append(lists[s], int32(i))
		}
		routed[ci] = lists
	})
	t1 := time.Now()

	// Absorb: shards are independent, so this is a map over shards with no
	// locks except inside the intern table (which is itself sharded, and
	// fronted by a per-worker memo). The constant-frequency update is
	// batched per distinct slot — each slot touched by this append
	// contributes its candidate substrings once, weighted by how many
	// appended rows carried it — so duplicate-heavy appends never re-walk a
	// value's tokens per row. Touched slots are tracked with an epoch stamp
	// per slot, so the per-row cost is one array probe, not a map op.
	parallel.For(workers, nshards, func(s int) {
		sh := &ix.shards[s]
		buf := make([]token.Token, 0, 32)
		loc := intern.NewLocal(ix.table)
		sh.epoch++
		var touched []int32
		var prevCounts []int
		for ci := range routed {
			for _, ri := range routed[ci][s] {
				i := int(ri)
				h := hashes[i]
				v := ix.data[base+i]
				head, ok := sh.buckets[h]
				slot := int32(-1)
				if ok {
					for cand := head; cand >= 0; cand = sh.next[cand] {
						if sh.values[cand] == v {
							slot = cand
							break
						}
					}
				}
				if slot < 0 {
					slot = int32(len(sh.values))
					if !ok {
						head = -1
					}
					sh.next = append(sh.next, head)
					sh.buckets[h] = slot
					sh.values = append(sh.values, v)
					sh.counts = append(sh.counts, 0)
					sh.groupOf = append(sh.groupOf, -1)
					sh.stamp = append(sh.stamp, 0)
					buf = tokenize.AppendTokenize(buf[:0], v)
					sh.ids = append(sh.ids, loc.Intern(buf))
				}
				if sh.cfreq != nil && sh.stamp[slot] != sh.epoch {
					sh.stamp[slot] = sh.epoch
					touched = append(touched, slot)
					prevCounts = append(prevCounts, sh.counts[slot])
				}
				sh.counts[slot]++
				ix.rowRef[base+i] = slotRef{shard: int32(s), slot: slot}
			}
		}
		var vals []string
		for k, slot := range touched {
			vals = ix.constantCandidates(vals[:0], sh.values[slot], sh.ids[slot])
			delta := sh.counts[slot] - prevCounts[k]
			for _, cv := range vals {
				sh.cfreq[cv] += delta
			}
		}
	})
	ix.pendIndex += t1.Sub(t0)
	ix.pendTokenize += time.Since(t1)
}

// constantCandidates appends the distinct candidate substrings of value s
// under pattern id: the values of its non-literal tokens no longer than
// MaxConstantLen. Longer substrings are never counted because frequent is
// only consulted for freeze candidates at or under that cap. Initial
// patterns carry only fixed quantifiers (tokenize never emits '+'), so
// spans are a cumulative FixedLen walk with no per-row matching.
func (ix *Index) constantCandidates(vals []string, s string, id intern.PatternID) []string {
	off := 0
	for _, t := range ix.table.Tokens(id) {
		n, _ := t.FixedLen()
		if !t.IsLiteral() && n <= ix.opts.MaxConstantLen {
			v := s[off : off+n]
			dup := false
			for _, u := range vals {
				if u == v {
					dup = true
					break
				}
			}
			if !dup {
				vals = append(vals, v)
			}
		}
		off += n
	}
	return vals
}

// frequent reports whether candidate v clears the corpus-frequency bar —
// the mergeable-map payoff: one integer lookup per shard, summed, instead
// of a merged map built per profile.
func (ix *Index) frequent(v string) bool {
	n := 0
	for s := range ix.shards {
		n += ix.shards[s].cfreq[v]
	}
	return float64(n) >= ix.opts.MinConstantRatio*float64(len(ix.data))
}

// walk folds rows [grouped, len(data)) into the cached grouping. The scan
// is serial and in global row order — the first row carrying a pattern
// defines its cluster's position and sample, exactly as the reference
// per-row scan does — but it touches only appended rows:
// per row, one array read and one int append; per *new* distinct value,
// one map probe on its pattern id.
func (ix *Index) walk() {
	for i := ix.grouped; i < len(ix.data); i++ {
		r := ix.rowRef[i]
		sh := &ix.shards[r.shard]
		ci := sh.groupOf[r.slot]
		if ci < 0 {
			id := sh.ids[r.slot]
			gi, ok := ix.clusterOf[id]
			if !ok {
				gi = int32(len(ix.groups))
				ix.clusterOf[id] = gi
				ix.groups = append(ix.groups, &group{id: id})
			}
			ci = gi
			sh.groupOf[r.slot] = ci
			g := ix.groups[ci]
			g.members = append(g.members, r)
		}
		g := ix.groups[ci]
		g.rows = append(g.rows, i)
	}
	ix.grouped = len(ix.data)
}

// Profile materializes the pattern hierarchy of everything added so far.
func (ix *Index) Profile() *Hierarchy {
	h, _ := ix.ProfileWithStats()
	return h
}

// ProfileWithStats is Profile with the per-phase timing breakdown. Index
// and Tokenize report the routing and absorption cost of the Adds since
// the previous profile (zero for a pure re-profile), so an incremental
// re-profile's stats show only the work the append actually caused.
func (ix *Index) ProfileWithStats() (*Hierarchy, *Stats) {
	clusters, st := ix.initial()
	t0 := time.Now()
	leaves := make([]*Node, len(clusters))
	for i, c := range clusters {
		leaves[i] = &Node{Pattern: c.Pattern, Level: 0, Leaves: []*Cluster{c}}
	}
	h := &Hierarchy{Levels: [][]*Node{leaves}, Clusters: clusters, Data: ix.data}
	for level, g := range []Strategy{QuantToPlus, LettersToAlpha, AllToAlphaNum} {
		h.Levels = append(h.Levels, refine(h.Levels[level], g, level+1, ix.table))
	}
	st.Refine = time.Since(t0)
	return h, st
}

// initial materializes the level-0 clusters of everything added so far,
// in first-seen order, with constant tokens frozen; st carries every
// phase timing except Refine.
func (ix *Index) initial() ([]*Cluster, *Stats) {
	st := &Stats{
		Sharded:  len(ix.shards) > 1,
		Index:    ix.pendIndex,
		Tokenize: ix.pendTokenize,
	}
	ix.pendIndex, ix.pendTokenize = 0, 0
	t0 := time.Now()
	ix.walk()

	// Materialize fresh clusters from the cached grouping: patterns start
	// from the interned base tokens every time (constant discovery below
	// may specialize them, and an append can break a previously-discovered
	// constant), and row lists are copied so hierarchies returned earlier
	// stay immutable as the index grows.
	workers := parallel.Effective(ix.opts.Workers)
	clusters := make([]*Cluster, len(ix.groups))
	parallel.For(workers, len(ix.groups), func(i int) {
		g := ix.groups[i]
		first := g.members[0]
		rows := make([]int, len(g.rows))
		copy(rows, g.rows)
		clusters[i] = &Cluster{
			Pattern: pattern.Of(ix.table.Tokens(g.id)...),
			Rows:    rows,
			Sample:  ix.shards[first.shard].values[first.slot],
		}
	})
	t1 := time.Now()
	if ix.opts.DiscoverConstants {
		// Constant substitution can only refine labels, never merge
		// clusters, so the partition is unchanged.
		parallel.For(workers, len(clusters), func(i int) {
			ix.freezeConstants(clusters[i], ix.groups[i])
		})
	}
	st.Rows = len(ix.data)
	st.DistinctValues = ix.DistinctValues()
	st.LeafPatterns = len(clusters)
	st.Group = t1.Sub(t0)
	st.Constants = time.Since(t1)
	return clusters, st
}

// freezeConstants rewrites c's constant base tokens to literals (§4.1),
// checking constancy across the group's distinct members only — identical
// rows can neither create nor break constancy — and frequency against the
// sharded count maps.
func (ix *Index) freezeConstants(c *Cluster, g *group) {
	if len(g.rows) < ix.opts.MinConstantSupport {
		return
	}
	toks := c.Pattern.Tokens()
	first := ix.shards[g.members[0].shard].values[g.members[0].slot]
	newToks := make([]token.Token, len(toks))
	copy(newToks, toks)
	changed := false
	off := 0
	for ti, t := range toks {
		l, _ := t.FixedLen() // initial patterns are fully fixed
		start := off
		off += l
		if t.IsLiteral() || l > ix.opts.MaxConstantLen {
			continue
		}
		val := first[start : start+l]
		constant := true
		for _, m := range g.members[1:] {
			if ix.shards[m.shard].values[m.slot][start:start+l] != val {
				constant = false
				break
			}
		}
		if constant && ix.frequent(val) {
			newToks[ti] = token.Lit(val)
			changed = true
		}
	}
	if changed {
		c.Pattern = pattern.Of(coalesceConstants(newToks)...)
	}
}
