package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runCaptured runs the benchmark in process and decodes the result line.
func runCaptured(t *testing.T, o options) result {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(o)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", o.workload, err)
	}
	return res
}

func names(res result) []string {
	var out []string
	for k := range res.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunsMatchBenchmarkJSON runs every workload, and the traced run,
// on tiny inputs against freshly built nodes: no operation may fail, and
// the metric names printed must be exactly those BENCHMARK.json lists.
func TestTinyRunsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds clxd and clxproxy and starts them")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	want := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/clxd", "./cmd/clxproxy")
	build.Dir = ".."
	var stderr bytes.Buffer
	build.Stderr = &stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v\n%s", err, stderr.String())
	}

	for _, w := range workloads {
		res := runCaptured(t, options{workload: w, seed: 7, seconds: 1, bin: bin, work: t.TempDir(), tiny: true})
		if res.Failed != 0 || res.Attempted == 0 || !res.Correct {
			t.Errorf("%s: attempted %d, failed %d, correct %v", w, res.Attempted, res.Failed, res.Correct)
		}
		if got, want := names(res), want(bench.EndToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: metrics %v, BENCHMARK.json end_to_end %v", w, got, want)
		}
	}
	res := runCaptured(t, options{workload: "interactive", seed: 7, seconds: 1, bin: bin, work: t.TempDir(), tiny: true, trace: true})
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("traced: attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if got, want := names(res), want(bench.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("traced: metrics %v, BENCHMARK.json per_layer %v", got, want)
	}
}
