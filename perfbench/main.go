// Command perfbench is the repository's benchmark: it runs one named
// workload against real clxd nodes (and, for serve, clxproxy) over
// loopback HTTP, checks every reply against the library-path oracle, and
// prints each metric by name with its unit. With -trace 1 it instead
// replays every workload's inputs through the layers' exported functions
// with a span around each call and prints the per-layer breakdown,
// reconciled against the end-to-end times. Run it through run.sh, which
// builds the binaries it drives; README.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	clx "clx"
	"clx/internal/dataset"
	"clx/internal/progstore"
	"clx/internal/provenance"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
	tiny     bool
}

// setupsPerRun is how many times a run sets up its fleet; setup_s is the
// median. The self-test's tiny runs set up once.
const setupsPerRun = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every workload reports (-trace 0).
// Their meaning per workload is in aliases and README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"stage_p50_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"peak_rss_mb", "MB"},
}

// aliases gives each end-to-end metric its workload-specific name.
var aliases = map[string]map[string]string{
	"interactive": {"p50_ms": "session_p50_ms", "tail_ms": "session_p95_ms", "stage_p50_ms": "label_p50_ms", "rows_per_s": "session_rows_per_s"},
	"bulk":        {"p50_ms": "stream_p50_ms", "tail_ms": "stream_p75_ms", "stage_p50_ms": "stream_server_p50_ms", "rows_per_s": "stream_rows_per_s"},
	"serve":       {"p50_ms": "serve_p50_ms", "tail_ms": "serve_p95_ms", "stage_p50_ms": "write_p50_ms", "rows_per_s": "serve_rows_per_s"},
}

// tailWant is the tail percentile each workload reports as tail_ms. For
// serve it is p95, not p99: on a virtual machine whose host withholds a
// few percent of the CPU in bursts, the open loop's p99 measures those
// stalls more than the program (p99 is printed beside it).
var tailWant = map[string]float64{"interactive": 0.95, "bulk": 0.75, "serve": 0.95}

var workloads = []string{"interactive", "bulk", "serve"}

// metricVal is one metric in the result line.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: interactive, bulk or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.bin, "bin", "", "directory holding the clxd and clxproxy binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory for stores, logs and span dumps")
	flag.BoolVar(&o.tiny, "tiny", false, "tiny inputs (self-test)")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown -workload %q (want interactive, bulk or serve)", o.workload)
	case o.bin == "" || o.work == "":
		return fmt.Errorf("-bin and -work are required")
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be positive")
	}
	for _, b := range []string{"clxd", "clxproxy"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	if err := os.RemoveAll(o.work); err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	prov := provenance.Collect()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v tiny=%v\n", o.workload, o.seed, o.seconds, o.trace, o.tiny)
	fmt.Printf("provenance commit=%s dirty=%v gomaxprocs=%d num_cpu=%d go=%s\n",
		orNone(prov.GitCommit), prov.GitDirty, prov.GOMAXPROCS, prov.NumCPU, prov.GoVersion)
	var res result
	var err error
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runEndToEnd(o)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// templatePrograms is how many programs the template registry holds; the
// seed programs a workload registers at set-up follow them, so their ids
// are known before any node starts.
const templatePrograms = 24

// makeTemplate writes the registry every node starts from: programs a
// node must recover (snapshot load and automaton compile) at start-up.
func makeTemplate(dir string, seed int64) error {
	st, err := progstore.Open(dir)
	if err != nil {
		return err
	}
	for i := 0; i < templatePrograms; i++ {
		rows, _ := dataset.Phones(200, 1+i%6, seed+int64(i))
		target := "<D>3'-'<D>3'-'<D>4"
		if i%2 == 1 {
			rows, _ = dataset.Dates(200, seed+int64(i))
			target = "<D>2'-'<D>2'-'<D>4"
		}
		tr, err := clx.NewSession(rows).Label(clx.MustParsePattern(target))
		if err != nil {
			return err
		}
		raw, err := tr.Export()
		if err != nil {
			return err
		}
		if _, err := st.Register(raw, progstore.Meta{Name: fmt.Sprintf("recovered-%d", i), RowCount: len(rows)}); err != nil {
			return err
		}
	}
	return st.Close()
}

// inputs is one workload's generated inputs and oracle.
type inputs struct {
	pool   []*sessionSpec
	progs  []*seedProgram
	bodies []*bulkBody
	items  []*serveItem
}

// prepare generates the workload's inputs from the seed and, where the
// replies do not depend on ids minted at set-up, the oracle's answers.
// Nothing here is timed.
func prepare(o options, w string, dur time.Duration) (*inputs, error) {
	in := &inputs{}
	var err error
	switch w {
	case "interactive":
		in.pool = sessionPool(o.seed, o.tiny)
		env, err := newReplayEnv(filepath.Join(o.work, "oracle-"+w))
		if err != nil {
			return nil, err
		}
		defer env.reg.Close()
		for _, s := range in.pool {
			if s.exp, err = replaySession(s, nil, env); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
		}
	case "bulk":
		if in.progs, err = seedPrograms(o.seed); err != nil {
			return nil, err
		}
		n := bulkRows
		if o.tiny {
			n = tinyBulkRows
		}
		if in.bodies, err = bulkBodies(o.seed, in.progs, n); err != nil {
			return nil, err
		}
	case "serve":
		if in.progs, err = seedPrograms(o.seed); err != nil {
			return nil, err
		}
		in.items = serveSchedule(o.seed, dur, in.progs)
		if err := expectServe(in.items, in.progs); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// setUp starts the workload's fleet, registers its seed programs and
// warms it up, returning the fleet and how long that took.
func setUp(o options, w, dir, template string, in *inputs) (*testbed, time.Duration, error) {
	nodes := 1
	if w == "serve" {
		nodes = 2
	}
	t0 := time.Now()
	f, err := startFleet(fleetSpec{bin: o.bin, dir: dir, template: template, nodes: nodes})
	if err != nil {
		return nil, 0, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for _, p := range in.progs {
		if err := p.register(hc, f.front); err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	switch w {
	case "interactive":
		// The smallest session of each kind: the same warm-up work for
		// every seed.
		least := in.pool[0].rows()
		for _, s := range in.pool {
			least = min(least, s.rows())
		}
		for _, s := range in.pool {
			if s.rows() != least {
				continue
			}
			if _, err = runSessionHTTP(hc, f.front, s); err != nil {
				break
			}
		}
	case "bulk":
		_, err = runStreamHTTP(hc, f.front+"/v1/programs/"+in.progs[0].id+"/apply/stream", in.bodies[0])
	case "serve":
		for i, it := range in.items {
			if i == 40 {
				break
			}
			if it.op == opRegister {
				continue
			}
			code, b, cerr := call(hc, "POST", f.front+it.path(in.progs), it.body)
			if err = cerr; err == nil {
				err = checkServe(it, code, b)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		f.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return f, time.Since(t0), nil
}

// runEndToEnd is the untraced run: set up (several times, reporting the
// median), drive the workload over HTTP for the measured seconds, and
// report the end-to-end metrics.
func runEndToEnd(o options) (result, error) {
	w := o.workload
	dur := time.Duration(o.seconds) * time.Second
	in, err := prepare(o, w, dur)
	if err != nil {
		return result{}, err
	}
	template := filepath.Join(o.work, "template")
	if err := makeTemplate(template, o.seed); err != nil {
		return result{}, err
	}
	var setups timings
	var f *testbed
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	n := setupsPerRun
	if o.tiny {
		n = 1
	}
	for i := 0; i < n; i++ {
		if f != nil {
			f.stop()
			f = nil
		}
		var d time.Duration
		if f, d, err = setUp(o, w, o.work, template, in); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	before, err := f.scrape()
	if err != nil {
		return result{}, err
	}
	var px0 proxyStats
	if f.proxy != nil {
		if err := getJSON(f.proxy.url+"/v1/proxy/stats", &px0); err != nil {
			return result{}, err
		}
	}

	vals := map[string]float64{"setup_s": setups.quantile(0.5)}
	// counts is each metric's sample count as printed.
	counts := map[string]string{"setup_s": fmt.Sprint(len(setups))}
	var attempted, failed int
	var errs []string
	var props []string
	tailQ := tailWant[w]
	switch w {
	case "interactive":
		r := runInteractive(f.front, in.pool, o.seed, 2, dur, 0)
		attempted, failed, errs = r.attempts, r.failed, r.errs
		var total, create, label timings
		var rows int
		for _, s := range r.samples {
			total.add(s.total)
			create.add(s.create)
			label.add(s.label)
			rows += in.pool[s.spec].rows()
		}
		tailQ = tailQuantile(len(total), tailWant[w])
		vals["p50_ms"], vals["tail_ms"], vals["stage_p50_ms"] = total.quantile(0.5), total.quantile(tailQ), label.quantile(0.5)
		vals["create_p50_ms"] = create.quantile(0.5)
		vals["rows_per_s"] = ratio(float64(rows), total.sum()/1000)
		for _, k := range []string{"p50_ms", "tail_ms", "stage_p50_ms", "create_p50_ms", "rows_per_s"} {
			counts[k] = fmt.Sprint(len(total))
		}
		props = interactiveProps(in.pool)
	case "bulk":
		r := runBulk(f.front, in.progs, in.bodies, dur, 0)
		attempted, failed, errs = r.attempts, r.failed, r.errs
		// The two programs stream at different speeds; a median over the
		// pooled samples would flip between them, so each statistic is
		// taken per program and averaged.
		total := make([]timings, len(in.bodies))
		first := make([]timings, len(in.bodies))
		server := make([]timings, len(in.bodies))
		var rows int
		var busy float64
		for _, s := range r.samples {
			total[s.body].add(s.total)
			first[s.body].add(s.first)
			server[s.body].add(s.server)
			rows += s.rows
			busy += s.total.Seconds()
		}
		vals["p50_ms"], vals["tail_ms"], vals["stage_p50_ms"] = meanQuantile(total, 0.5), meanQuantile(total, tailQ), meanQuantile(server, 0.5)
		vals["first_frame_p50_ms"] = meanQuantile(first, 0.5)
		vals["rows_per_s"] = ratio(float64(rows), busy)
		per := make([]string, len(total))
		for i, t := range total {
			per[i] = fmt.Sprint(len(t))
		}
		for _, k := range []string{"p50_ms", "tail_ms", "stage_p50_ms", "first_frame_p50_ms"} {
			counts[k] = strings.Join(per, "+") + " per program"
		}
		counts["rows_per_s"] = fmt.Sprint(len(r.samples))
		props = bulkProps(in.bodies)
	case "serve":
		r := runServe(f.front, in.items, in.progs)
		attempted, failed, errs = r.attempts, r.failed, r.errs
		// rates is rows per second of each apply and transform, from its
		// scheduled send time; its median, unlike a sum over all requests,
		// is not dragged by the few a host stall delays.
		var all, writes, late, rates timings
		for _, s := range r.samples {
			all.add(s.sched)
			late.add(s.lateness)
			if s.op == opRegister {
				writes.add(s.sched)
			} else {
				rates = append(rates, float64(s.rows)/s.sched.Seconds())
			}
		}
		vals["p50_ms"], vals["tail_ms"], vals["stage_p50_ms"] = all.quantile(0.5), all.quantile(tailQ), writes.quantile(0.5)
		vals["rows_per_s"] = rates.quantile(0.5)
		vals["serve_p99_ms"] = all.quantile(tailQuantile(len(all), 0.99))
		vals["driver.lateness_p99_ms"] = late.quantile(0.99)
		for _, k := range []string{"p50_ms", "tail_ms", "serve_p99_ms", "driver.lateness_p99_ms"} {
			counts[k] = fmt.Sprint(len(all))
		}
		counts["stage_p50_ms"], counts["rows_per_s"] = fmt.Sprint(len(writes)), fmt.Sprint(len(rates))
		var px1 proxyStats
		if err := getJSON(f.proxy.url+"/v1/proxy/stats", &px1); err != nil {
			return result{}, err
		}
		props = serveProps(in.items, px0, px1)
	}
	after, err := f.scrape()
	if err != nil {
		return result{}, err
	}
	vals["peak_rss_mb"] = f.peakRSSMB()
	counts["peak_rss_mb"] = fmt.Sprint(len(f.procs))
	f.stop()
	f = nil
	props = append(props, statsProps(before, after)...)

	for _, p := range props {
		fmt.Println("property", p)
	}
	al := aliases[w]
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricVal{}}
	for _, m := range endToEnd {
		name := m.name
		if a, ok := al[name]; ok {
			name = a + " (" + m.name + ")"
		}
		if m.name == "tail_ms" {
			name += fmt.Sprintf(" at p%g", 100*tailQ)
		}
		fmt.Printf("metric %s = %.4f %s (n=%s)\n", name, vals[m.name], m.unit, counts[m.name])
		res.Metrics[m.name] = metricVal{Value: vals[m.name], Unit: m.unit}
	}
	for _, k := range []string{"create_p50_ms", "first_frame_p50_ms", "serve_p99_ms", "driver.lateness_p99_ms"} {
		if v, ok := vals[k]; ok {
			fmt.Printf("metric %s = %.4f ms (n=%s)\n", k, v, counts[k])
		}
	}
	fmt.Printf("metric error_rate = %.6f ratio (failed %d of %d attempted)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	for _, e := range errs {
		fmt.Println("failure", e)
	}
	return res, nil
}

// interactiveProps records the session inputs' plan-switch split and
// distinct-value ratio per column kind.
func interactiveProps(pool []*sessionSpec) []string {
	sharded := 0
	rows, distinct := map[string]int{}, map[string]int{}
	for _, s := range pool {
		if s.exp.sharded {
			sharded++
		}
		rows[s.kind] += len(s.create)
		distinct[s.kind] += s.exp.distinct
	}
	out := []string{fmt.Sprintf("sessions_sharded_share=%.3f (%d of %d pool sessions at or above the 4096-row plan switch)",
		float64(sharded)/float64(len(pool)), sharded, len(pool))}
	for _, k := range sessionKinds {
		out = append(out, fmt.Sprintf("distinct_ratio.%s=%.4f", k, ratio(float64(distinct[k]), float64(rows[k]))))
	}
	return out
}

func bulkProps(bodies []*bulkBody) []string {
	var rows, flagged int
	for _, b := range bodies {
		rows += b.n
		flagged += b.flagged
	}
	return []string{fmt.Sprintf("flagged_share=%.5f (%d of %d rows per body pass)", ratio(float64(flagged), float64(rows)), flagged, rows)}
}

func serveProps(items []*serveItem, px0, px1 proxyStats) []string {
	var n [numOps]int
	for _, it := range items {
		n[it.op]++
	}
	out := []string{fmt.Sprintf("schedule poisson rate=%d/s requests=%d fingerprint=%016x", serveRate, len(items), fingerprint(items))}
	for op := 0; op < numOps; op++ {
		out = append(out, fmt.Sprintf("op_share.%s=%.3f", opNames[op], ratio(float64(n[op]), float64(len(items)))))
	}
	var total int64
	for i := range px1.Backends {
		total += px1.Backends[i].Picks - px0.Backends[i].Picks
	}
	for i := range px1.Backends {
		out = append(out, fmt.Sprintf("node_share.%d=%.3f", i, ratio(float64(px1.Backends[i].Picks-px0.Backends[i].Picks), float64(total))))
	}
	return out
}

// statsProps summarizes what the nodes' own counters saw during the
// measured phase.
func statsProps(before, after []nodeStats) []string {
	var out []string
	for i := range after {
		a, b := after[i], before[i]
		out = append(out, fmt.Sprintf("node%d.matcher_cache_hit_ratio=%.4f node%d.profiles=%d node%d.streamed_rows=%d",
			i, ratio(float64(a.MatcherCache.Hits-b.MatcherCache.Hits), float64(a.MatcherCache.Hits-b.MatcherCache.Hits+a.MatcherCache.Misses-b.MatcherCache.Misses)),
			i, a.ProfileIndex.Profiles-b.ProfileIndex.Profiles, i, a.Streaming.Rows-b.Streaming.Rows))
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
