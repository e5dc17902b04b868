// Reference oracle for quantitative repair ranking: the original per-row
// scorer, kept verbatim so the distinct-value scorer in repair.go can be
// checked against it candidate for candidate.
package clx

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clx/internal/benchsuite"
	"clx/internal/dataset"
	"clx/internal/mdl"
	"clx/internal/rematch"
	"clx/internal/replace"
	"clx/internal/simuser"
	"clx/internal/unifi"
)

// referenceRepairCandidates scores every ranked plan of source i by
// applying it to each not-yet-clean row of the source, one full match
// and one output string per (row, plan).
func referenceRepairCandidates(t *Transformation, i int) []RepairCandidate {
	if i < 0 || i >= len(t.res.Sources) {
		return nil
	}
	src := t.res.Sources[i]
	target := rematch.CompileCached(t.res.Target.Tokens())
	var rows []string
	if src.Node != nil {
		for _, c := range src.Node.Leaves {
			for _, ri := range c.Rows {
				if v := t.data[ri]; !target.Matches(v) {
					rows = append(rows, v)
				}
			}
		}
	}
	cur := planOps(src.Plans[src.Chosen].Plan, src.Source)
	out := make([]RepairCandidate, 0, len(src.Plans))
	for j, r := range src.Plans {
		c := RepairCandidate{
			Source:       i,
			Alt:          j,
			Op:           replace.ExplainCase(unifi.Case{Source: src.Source, Plan: r.Plan}),
			DL:           r.DL,
			EditDistance: editDistance(cur, planOps(r.Plan, src.Source)),
			Selected:     j == src.Chosen,
		}
		for _, v := range rows {
			got, err := r.Plan.Apply(src.Source, v)
			if err != nil || !target.Matches(got) {
				c.Residual++
			}
		}
		c.Score = float64(c.Residual)*1000 + float64(c.EditDistance) + c.DL/1e4
		out = append(out, c)
	}
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Residual != y.Residual {
			return x.Residual < y.Residual
		}
		if x.EditDistance != y.EditDistance {
			return x.EditDistance < y.EditDistance
		}
		if x.DL != y.DL {
			return x.DL < y.DL
		}
		return x.Alt < y.Alt
	})
	return out
}

// checkAgainstReference asserts RepairCandidates equals the reference
// for every source (plus the out-of-range edges) and returns how many
// sources it compared.
func checkAgainstReference(t *testing.T, what string, tr *Transformation) int {
	t.Helper()
	n := len(tr.Sources())
	for i := -1; i <= n; i++ {
		got, want := tr.RepairCandidates(i), referenceRepairCandidates(tr, i)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s source %d: candidates diverge from the reference\n got  %+v\n want %+v", what, i, got, want)
		}
	}
	return n
}

// repairColumn builds the interactive workload's column shapes: phone
// numbers in six formats, mixed-format dates, and a low-cardinality
// column of a few hundred product ids repeated.
func repairColumn(kind string, n int, seed int64) (rows []string, target Pattern) {
	switch kind {
	case "phones":
		rows, _ = dataset.Phones(n, 6, seed)
		return rows, MustParsePattern("<D>3'-'<D>3'-'<D>4")
	case "dates":
		rows, _ = dataset.Dates(n, seed)
		return rows, MustParsePattern("<D>2'-'<D>2'-'<D>4")
	default:
		vals := dataset.ProductIDs(300, seed)
		r := rand.New(rand.NewSource(seed + 1))
		rows = make([]string, n)
		for i := range rows {
			rows[i] = vals[r.Intn(len(vals))]
		}
		return rows, MustParsePattern("<U>4'-'<D>4")
	}
}

func TestRepairCandidatesMatchReference(t *testing.T) {
	t.Run("benchsuite", func(t *testing.T) {
		sources := 0
		for _, task := range benchsuite.Tasks() {
			for _, target := range simuser.SelectTargets(task.Inputs, task.Outputs) {
				tr, err := NewSession(task.Inputs).Label(target)
				if err != nil {
					continue
				}
				sources += checkAgainstReference(t, task.Name, tr)
				// Re-score with each source moved to its last plan, so the
				// in-effect plan is no longer the MDL default.
				for i, src := range tr.res.Sources {
					if err := tr.Repair(i, len(src.Plans)-1); err != nil {
						t.Fatalf("%s: repair(%d): %v", task.Name, i, err)
					}
				}
				checkAgainstReference(t, task.Name+" repaired", tr)
			}
		}
		if sources == 0 {
			t.Fatal("no benchmark task produced a source to score")
		}
	})

	for _, kind := range []string{"phones", "dates", "lowcard"} {
		for _, n := range []int{1500, 6000, 16000} {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				rows, target := repairColumn(kind, n, int64(n))
				tr, err := NewSession(rows).Label(target)
				if err != nil {
					t.Fatal(err)
				}
				if checkAgainstReference(t, kind, tr) == 0 {
					t.Fatal("column labeled with no source to score")
				}
				if err := tr.Repair(0, len(tr.res.Sources[0].Plans)-1); err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, kind+" repaired", tr)
			})
		}
	}

	// Error paths: a plan whose Extract range is empty (I > J, which the
	// evaluator rejects as out of range), a plan whose output misses the
	// target, and a covered row that no longer matches its source pattern
	// all count as residual rows. The duplicated row checks that a value's
	// row count, not the value, is what gets added.
	t.Run("errors", func(t *testing.T) {
		data := []string{"31/12/2019", "28/02/2020", "12-31-2019", "31/12/2019"}
		tr, err := NewSession(data).Label(MustParsePattern("<D>2'-'<D>2'-'<D>4"))
		if err != nil {
			t.Fatal(err)
		}
		src := tr.res.Sources[0]
		src.Plans = append(src.Plans,
			mdl.Ranked{Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "x"}, unifi.Extract{I: 2, J: 1}}}, DL: 1e6},
			mdl.Ranked{Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "x"}}}, DL: 1e6 + 1})
		tr.data = append([]string(nil), tr.data...)
		broken := false
		for _, c := range src.Node.Leaves {
			for _, ri := range c.Rows {
				if tr.data[ri] == "28/02/2020" {
					tr.data[ri], broken = "not a date", true
				}
			}
		}
		if !broken {
			t.Fatalf("source %s does not cover 28/02/2020", src.Source)
		}
		if checkAgainstReference(t, "errors", tr) == 0 {
			t.Fatal("no source to score")
		}
		for _, c := range tr.RepairCandidates(0) {
			if c.Residual == 0 {
				t.Fatalf("alt %d scores no residual despite an unmatched row: %+v", c.Alt, c)
			}
		}
	})
}

// repairSink keeps the benchmarked scorers' results live.
var repairSink []RepairCandidate

// BenchmarkRepairCandidates scores every source of the interactive
// workload's column shapes, against the per-row reference scorer:
//
//	go test -run xxx -bench BenchmarkRepairCandidates -benchmem .
func BenchmarkRepairCandidates(b *testing.B) {
	for _, kind := range []string{"phones", "dates", "lowcard"} {
		for _, n := range []int{1500, 16000} {
			rows, target := repairColumn(kind, n, int64(n))
			tr, err := NewSession(rows).Label(target)
			if err != nil {
				b.Fatal(err)
			}
			for _, arm := range []struct {
				name  string
				score func(*Transformation, int) []RepairCandidate
			}{
				{"distinct", (*Transformation).RepairCandidates},
				{"reference", referenceRepairCandidates},
			} {
				b.Run(fmt.Sprintf("%s/%d/%s", kind, n, arm.name), func(b *testing.B) {
					for it := 0; it < b.N; it++ {
						for i := range tr.res.Sources {
							repairSink = arm.score(tr, i)
						}
					}
				})
			}
		}
	}
}
