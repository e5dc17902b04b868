package cluster

// Differential suite for the sharded, mergeable, incremental index: every
// combination of shard count, worker count, and append schedule must
// reproduce the reference per-row profile bit for bit — the same
// discipline the automaton and stream engines are held to. `make gate`
// runs this under the race detector via the profile-parity target.

import (
	"runtime"
	"testing"

	"clx/internal/dataset"
)

// pinGOMAXPROCS raises the scheduler's processor count for the test so the
// sharded plan actually runs concurrently (and the race tier sees real
// interleavings) even on a one-CPU CI container.
func pinGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// increments splits rows into parts contiguous, non-empty-where-possible
// append batches: the schedules the incremental API must be invariant to.
func increments(rows []string, parts int) [][]string {
	out := make([][]string, 0, parts)
	for p := 0; p < parts; p++ {
		lo, hi := p*len(rows)/parts, (p+1)*len(rows)/parts
		out = append(out, rows[lo:hi])
	}
	return out
}

// TestShardedIndexMatchesReference is the central equivalence theorem of
// the sharded-index rewrite: for every corpus, option set, shard count,
// worker count, and append schedule (everything at once vs four
// increments), Index.Profile emits a hierarchy byte-identical to the
// reference per-row implementation — including after every intermediate
// increment, where the index must match the reference profile of the
// prefix added so far.
func TestShardedIndexMatchesReference(t *testing.T) {
	pinGOMAXPROCS(t, 4)
	for name, rows := range referenceColumns() {
		for _, discover := range []bool{true, false} {
			opts := DefaultOptions()
			opts.DiscoverConstants = discover
			opts.Workers = 1

			// Reference fingerprints per prefix length, computed lazily:
			// the full column for the all-at-once schedule, each prefix for
			// the incremental one.
			refAt := map[int]string{}
			ref := func(n int) string {
				if fp, ok := refAt[n]; ok {
					return fp
				}
				fp := hierarchyFingerprint(referenceProfile(rows[:n], opts))
				refAt[n] = fp
				return fp
			}

			for _, shards := range []int{1, 4, 16} {
				for _, w := range []int{1, 2, 4, 8} {
					ixOpts := opts
					ixOpts.Workers = w

					// All at once.
					ix := newIndexShards(ixOpts, shards)
					ix.Add(rows)
					if got := hierarchyFingerprint(ix.Profile()); got != ref(len(rows)) {
						t.Errorf("%s discover=%v shards=%d workers=%d: all-at-once diverges from reference",
							name, discover, shards, w)
					}

					// Four increments, profiling after each.
					ix = newIndexShards(ixOpts, shards)
					added := 0
					for _, inc := range increments(rows, 4) {
						ix.Add(inc)
						added += len(inc)
						if got := hierarchyFingerprint(ix.Profile()); got != ref(added) {
							t.Errorf("%s discover=%v shards=%d workers=%d: profile after %d/%d rows diverges from reference",
								name, discover, shards, w, added, len(rows))
						}
					}
				}
			}
		}
	}
}

// TestProfileAutoCollapse pins the shard-count rule: the first Add builds
// 16 shards only when effective parallelism is at least 2 AND the batch
// is at least shardedMinRows — so a one-CPU machine, a serial request, or
// a small column all run on one shard — and later Adds never change the
// count.
func TestProfileAutoCollapse(t *testing.T) {
	big, _ := dataset.Phones(shardedMinRows, 6, 77)
	small := big[:shardedMinRows/8]
	cases := []struct {
		name        string
		gomaxprocs  int
		workers     int
		rows        []string
		wantSharded bool
	}{
		{"parallel-large", 4, 4, big, true},
		{"auto-workers-large", 4, 0, big, true},
		{"one-cpu-many-workers", 1, 8, big, false},
		{"serial-request-large", 4, 1, big, false},
		{"parallel-small", 4, 8, small, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pinGOMAXPROCS(t, tc.gomaxprocs)
			opts := DefaultOptions()
			opts.Workers = tc.workers
			_, st := ProfileWithStats(tc.rows, opts)
			if st.Sharded != tc.wantSharded {
				t.Errorf("GOMAXPROCS=%d workers=%d rows=%d: Sharded=%v, want %v",
					tc.gomaxprocs, tc.workers, len(tc.rows), st.Sharded, tc.wantSharded)
			}
		})
	}

	// A small first batch fixes one shard; appending past the threshold
	// keeps it, and the output still matches the reference.
	t.Run("one-shard-grows-past-threshold", func(t *testing.T) {
		pinGOMAXPROCS(t, 4)
		opts := DefaultOptions()
		opts.Workers = 4
		ix := NewIndex(opts)
		ix.Add(small)
		ix.Add(big)
		h, st := ix.ProfileWithStats()
		if st.Sharded || len(ix.shards) != 1 {
			t.Errorf("after growing to %d rows: Sharded=%v with %d shards, want one shard",
				st.Rows, st.Sharded, len(ix.shards))
		}
		grown := append(append([]string(nil), small...), big...)
		if hierarchyFingerprint(h) != hierarchyFingerprint(referenceProfile(grown, opts)) {
			t.Error("one-shard index grown past the threshold diverges from reference")
		}
	})

	// Whichever shard count runs, the bytes match.
	opts := DefaultOptions()
	opts.Workers = 1
	want := hierarchyFingerprint(Profile(big, opts))
	pinGOMAXPROCS(t, 4)
	opts.Workers = 4
	if got := hierarchyFingerprint(Profile(big, opts)); got != want {
		t.Error("16-shard profile diverges from 1-shard profile on the same column")
	}
}

// TestIndexIncrementalState pins the index bookkeeping across appends: row
// and distinct-value accounting, conservation of shard counts, and that a
// re-profile with no intervening Add reports zero pending Add time.
func TestIndexIncrementalState(t *testing.T) {
	rows, _ := dataset.Phones(1000, 6, 77)
	ix := NewIndex(DefaultOptions())
	ix.Add(rows[:600])
	ix.Add(rows[600:])

	if got := ix.Rows(); got != len(rows) {
		t.Fatalf("Rows = %d, want %d", got, len(rows))
	}
	serial := make(map[string]int)
	for _, v := range rows {
		serial[v]++
	}
	merged := ix.DistinctCounts()
	if len(merged) != len(serial) || ix.DistinctValues() != len(serial) {
		t.Fatalf("distinct values = %d (map %d), want %d", ix.DistinctValues(), len(merged), len(serial))
	}
	total := 0
	for v, n := range merged {
		if serial[v] != n {
			t.Errorf("count[%q] = %d, want %d", v, n, serial[v])
		}
		total += n
	}
	if total != len(rows) {
		t.Errorf("shard counts sum to %d, want %d", total, len(rows))
	}

	_, st := ix.ProfileWithStats()
	if st.Rows != len(rows) || st.Sharded {
		t.Errorf("stats = %+v, want Rows=%d Sharded=false (600-row first batch)", st, len(rows))
	}
	// Re-profile without an Add: the pending Add timings were consumed.
	_, st2 := ix.ProfileWithStats()
	if st2.Index != 0 || st2.Tokenize != 0 {
		t.Errorf("re-profile reports pending Add time (index=%v tokenize=%v), want zero", st2.Index, st2.Tokenize)
	}
	if st2.Rows != st.Rows || st2.LeafPatterns != st.LeafPatterns {
		t.Errorf("re-profile changed sizes: %+v vs %+v", st2, st)
	}
}

// TestIndexReturnedHierarchyImmutable: a hierarchy materialized before an
// append must not change when the index grows.
func TestIndexReturnedHierarchyImmutable(t *testing.T) {
	rows, _ := dataset.Phones(500, 6, 77)
	ix := NewIndex(DefaultOptions())
	ix.Add(rows[:400])
	before := ix.Profile()
	fp := hierarchyFingerprint(before)
	ix.Add(rows[400:])
	ix.Profile()
	if hierarchyFingerprint(before) != fp {
		t.Error("append mutated a previously returned hierarchy")
	}
}

// TestNewIndexShardsValidation: explicit shard counts must be powers of
// two.
func TestNewIndexShardsValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newIndexShards(%d) did not panic", bad)
				}
			}()
			newIndexShards(DefaultOptions(), bad)
		}()
	}
	for _, ok := range []int{1, 2, 8, 16} {
		if got := len(newIndexShards(DefaultOptions(), ok).shards); got != ok {
			t.Errorf("newIndexShards(%d) has %d shards", ok, got)
		}
	}
}

// TestIndexEmptyAndDegenerate covers the shapes that break off-by-ones:
// no rows at all, empty-string rows, and a single row.
func TestIndexEmptyAndDegenerate(t *testing.T) {
	for _, rows := range [][]string{{}, {""}, {"", "", ""}, {"only-one-row"}} {
		opts := DefaultOptions()
		want := hierarchyFingerprint(referenceProfile(rows, opts))
		ix := NewIndex(opts)
		ix.Add(rows)
		if got := hierarchyFingerprint(ix.Profile()); got != want {
			t.Errorf("rows=%q: index diverges from reference", rows)
		}
	}
	// Add of an empty batch is a no-op.
	ix := NewIndex(DefaultOptions())
	ix.Add(nil)
	if ix.Rows() != 0 || ix.DistinctValues() != 0 {
		t.Errorf("Add(nil) changed state: rows=%d distinct=%d", ix.Rows(), ix.DistinctValues())
	}
}

func BenchmarkIndexIncrementalReprofile(b *testing.B) {
	rows, _ := dataset.Phones(20000, 6, 77)
	cut := len(rows) * 95 / 100
	opts := DefaultOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := NewIndex(opts)
		ix.Add(rows[:cut])
		ix.Profile()
		b.StartTimer()
		ix.Add(rows[cut:])
		ix.Profile()
	}
}
