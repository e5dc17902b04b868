package clx_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	clx "clx"
	"clx/internal/automaton"
)

func TestExportLoadRoundTrip(t *testing.T) {
	column := []string{
		"(734) 645-8397", "734.236.3466", "734-422-8073", "N/A",
	}
	sess := clx.NewSession(column)
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	// The JSON is human-auditable: patterns in compact notation, named ops.
	if !strings.Contains(string(raw), `"target": "<D>3'-'<D>3'-'<D>4"`) ||
		!strings.Contains(string(raw), `"extract"`) {
		t.Errorf("export = %s", raw)
	}
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Target().Equal(tr.Target()) {
		t.Errorf("target = %s", sp.Target())
	}
	// The loaded program behaves identically to the live transformation.
	wantOut, wantFlag := tr.Run()
	gotOut, gotFlag := sp.Transform(column)
	for i := range column {
		if gotOut[i] != wantOut[i] {
			t.Errorf("row %d: loaded %q, live %q", i, gotOut[i], wantOut[i])
		}
	}
	if len(gotFlag) != len(wantFlag) {
		t.Errorf("flagged: loaded %v, live %v", gotFlag, wantFlag)
	}
	// And on novel data.
	if out, ok := sp.Apply("(917) 555-0100"); !ok || out != "917-555-0100" {
		t.Errorf("Apply novel = %q, %v", out, ok)
	}
	if _, ok := sp.Apply("+1 724-285-5210"); ok {
		t.Error("unknown format should not be transformed")
	}
}

func TestExportWithRepairAndGuards(t *testing.T) {
	// Repairs and guarded cases survive serialization.
	dates := clx.NewSession([]string{"31/12/2019", "28/02/2020", "12-31-2019"})
	tr, err := dates.Label(clx.MustParsePattern("<D>2'-'<D>2'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Repair(0, 1); err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := sp.Apply("31/12/2019"); !ok || out != "12-31-2019" {
		t.Errorf("repaired plan lost in export: %q, %v", out, ok)
	}

	cond := clx.NewSession([]string{
		"picture 001", "invoice 001", "picture 002", "invoice 002", "PIC-777",
	})
	tr2, err := cond.Label(clx.MustParsePattern("<U>+'-'<D>+"))
	if err != nil {
		t.Fatal(err)
	}
	err = tr2.RepairWithExamples(map[string]string{
		"picture 001": "PIC-001", "picture 002": "PIC-002",
		"invoice 001": "DOC-001", "invoice 002": "DOC-002",
	})
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := tr2.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw2), `"guard"`) {
		t.Errorf("guards missing from export: %s", raw2)
	}
	sp2, err := clx.LoadProgram(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := sp2.Apply("invoice 042"); !ok || out != "DOC-042" {
		t.Errorf("guarded plan lost: %q, %v", out, ok)
	}
	if _, ok := sp2.Apply("receipt 001"); ok {
		t.Error("unknown keyword should stay unmatched after load")
	}
}

func TestLoadProgramErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"target":"<oops","cases":[]}`,
		`{"target":"<D>","cases":[{"source":"<D>","plan":[{"op":"bogus"}]}]}`,
		`{"target":"<D>","cases":[{"source":"<D>","plan":[{"op":"extract","i":1,"j":5}]}]}`,
		`{"target":"<D>","cases":[{"source":"<D>","guard":{"token":9,"value":"x"},"plan":[]}]}`,
	}
	for _, c := range cases {
		if _, err := clx.LoadProgram([]byte(c)); err == nil {
			t.Errorf("LoadProgram(%s) succeeded, want error", c)
		}
	}
}

func TestSavedProgramJSONShape(t *testing.T) {
	sess := clx.NewSession([]string{"734.236.3466", "111-222-3333"})
	tr, _ := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if _, ok := v["target"]; !ok {
		t.Error("missing target field")
	}
	if _, ok := v["cases"]; !ok {
		t.Error("missing cases field")
	}
}

// Property over the whole benchmark suite: Export/Load preserves behavior
// on every row of every task.
func TestExportLoadSuiteWide(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{
		"sygus-phone-3", "bf-ex3-medical", "ff-ex9-names", "sygus-univ-1",
		"prose-ex1-country", "sygus-car-3", "pp-ex3-address",
	} {
		task := mustTask(t, name)
		sess := clx.NewSession(task.Inputs)
		for _, target := range clxTargets(task.Outputs) {
			tr, err := sess.Label(target)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			raw, err := tr.Export()
			if err != nil {
				t.Fatalf("%s: export: %v", name, err)
			}
			sp, err := clx.LoadProgram(raw)
			if err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			liveOut, _ := tr.Run()
			loadOut, _ := sp.Transform(task.Inputs)
			for i := range liveOut {
				if liveOut[i] != loadOut[i] {
					t.Errorf("%s row %d: live %q, loaded %q", name, i, liveOut[i], loadOut[i])
				}
			}
		}
	}
}

// AppendApply agrees with Apply byte for byte on both engines — the
// automaton fast path and the backtracking reference after
// DisableAutomaton — including uncovered rows (input passthrough, ok
// false) and buffer reuse across calls.
func TestAppendApplyBothEngines(t *testing.T) {
	column := []string{
		"(734) 645-8397", "734.236.3466", "734-422-8073", "N/A",
	}
	sess := clx.NewSession(column)
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	auto, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !auto.HasAutomaton() {
		t.Fatal("phones program should lower to an automaton")
	}
	ref, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	ref.DisableAutomaton()
	if ref.HasAutomaton() {
		t.Fatal("DisableAutomaton left the automaton attached")
	}

	subjects := append([]string{"", "x", "313.263.1192"}, column...)
	for _, sp := range []*clx.SavedProgram{auto, ref} {
		var buf []byte
		for _, s := range subjects {
			want, wantOK := sp.Apply(s)
			buf = buf[:0]
			buf = append(buf, "pre|"...)
			out, ok := sp.AppendApply(buf, s)
			if ok != wantOK {
				t.Fatalf("AppendApply(%q) ok=%v, Apply ok=%v", s, ok, wantOK)
			}
			got := string(out[len("pre|"):])
			if ok && got != want {
				t.Errorf("AppendApply(%q) = %q, Apply = %q", s, got, want)
			}
			if !ok && got != s {
				t.Errorf("AppendApply(%q) uncovered row appended %q, want input", s, got)
			}
			buf = out
		}

		// The chunk applier is the same function bound to chunk scratch.
		apply, release := sp.ChunkApplier()
		for _, s := range subjects {
			want, wantOK := sp.Apply(s)
			out, ok := apply(nil, s)
			if ok != wantOK || (ok && string(out) != want) {
				t.Errorf("ChunkApplier(%q) = (%q,%v), Apply = (%q,%v)", s, out, ok, want, wantOK)
			}
		}
		release()
	}
}

// The byte automaton is compiled on first use, once, however many
// goroutines race to that first use through the three apply entry
// points; loading alone compiles nothing. Run under -race (make
// apply-parity).
func TestLazyAutomatonConcurrentFirstUse(t *testing.T) {
	column := []string{
		"(734) 645-8397", "734.236.3466", "734-422-8073", "N/A",
	}
	tr, err := clx.NewSession(column).Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tr.Run()

	before := automaton.GlobalStats()
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := automaton.GlobalStats(); got != before {
		t.Fatalf("LoadProgram compiled: counters %+v → %+v", before, got)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8*len(column))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, s := range column {
				var got string
				switch g % 3 {
				case 0:
					got, _ = sp.Apply(s)
				case 1:
					out, _ := sp.AppendApply(nil, s)
					got = string(out)
				default:
					apply, release := sp.ChunkApplier()
					out, _ := apply(nil, s)
					release()
					got = string(out)
				}
				if got != want[i] {
					errs <- fmt.Sprintf("goroutine %d row %q: got %q, want %q", g, s, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	after := automaton.GlobalStats()
	if after.Compiled != before.Compiled+1 || after.Fallback != before.Fallback {
		t.Fatalf("first use compiled %d programs (%d fallbacks), want exactly 1",
			after.Compiled-before.Compiled, after.Fallback-before.Fallback)
	}
	if !sp.HasAutomaton() {
		t.Fatal("phones program should lower to an automaton")
	}
	if got := automaton.GlobalStats(); got != after {
		t.Fatalf("HasAutomaton after first use recompiled: %+v → %+v", after, got)
	}

	// Disabled before first use: never compiled, served by the reference
	// engine with the same results.
	ref, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	ref.DisableAutomaton()
	for i, s := range column {
		if got, _ := ref.Apply(s); got != want[i] {
			t.Errorf("reference engine row %q: got %q, want %q", s, got, want[i])
		}
	}
	if ref.HasAutomaton() {
		t.Fatal("DisableAutomaton before first use still attached an automaton")
	}
	if got := automaton.GlobalStats(); got != after {
		t.Fatalf("disabled program compiled: %+v → %+v", after, got)
	}
}
