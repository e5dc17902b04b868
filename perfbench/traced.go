package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clx/internal/daemon"
	"clx/internal/fleet"
	"clx/internal/fleet/routing"
	"clx/internal/progstore"
	"clx/internal/synth"
)

// perLayer are the metrics of the traced run (-trace 1), named by module.
// Times are per unit of work of the workload the metric is measured on
// (a session, a stream, a request) unless the name says otherwise;
// README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"tokenize.busy_ms", "ms"},
	{"cluster.profile_ms", "ms"}, {"cluster.append_ms", "ms"}, {"cluster.constants_ms", "ms"},
	{"synth.synthesize_ms", "ms"}, {"synth.calls", "count"}, {"align.align_ms", "ms"}, {"mdl.topk_ms", "ms"},
	{"clx.repair_candidates_ms", "ms"}, {"clx.repair_candidates_calls", "count"}, {"clx.run_ms", "ms"}, {"clx.export_ms", "ms"},
	{"replace.explain_ms", "ms"}, {"replace.preview_ms", "ms"},
	{"rematch.cache_hit_ratio", "ratio"}, {"rematch.match_ms", "ms"},
	{"automaton.compile_ms", "ms"}, {"automaton.apply_rows_per_s", "rows/s"}, {"automaton.fallback_share", "ratio"},
	{"stream.run_rows_per_s", "rows/s"}, {"stream.allocs_per_row", "count"}, {"stream.peak_in_flight", "count"},
	{"daemon.decode_ms", "ms"}, {"daemon.encode_ms", "ms"},
	{"daemon.decode_ms.bulk", "ms"}, {"daemon.encode_ms.bulk", "ms"},
	{"daemon.decode_ms.serve", "ms"}, {"daemon.encode_ms.serve", "ms"},
	{"daemon.rejected", "count"},
	{"sessionstore.create_ms", "ms"}, {"sessionstore.acquire_wait_ms", "ms"}, {"sessionstore.rejected", "count"},
	{"progstore.register_ms", "ms"}, {"progstore.apply_ms", "ms"},
	{"fleet.ship_ms", "ms"}, {"fleet.resyncs", "count"}, {"fleet.proxy_hop_ms", "ms"}, {"fleet.retries", "count"},
	{"routing.pick_us", "us"},
	{"driver.lateness_p99_ms", "ms"},
	{"residual_ms.interactive", "ms"}, {"residual_ms.bulk", "ms"}, {"residual_ms.serve", "ms"},
	{"trace_overhead_pct.interactive", "%"}, {"trace_overhead_pct.bulk", "%"}, {"trace_overhead_pct.serve", "%"},
}

// layerProps are per-layer figures that describe the work a workload
// gave a layer rather than how well the layer did it: more or less of
// them is neither better nor worse. The traced run prints them but
// leaves them out of the result line.
var layerProps = []metricDef{
	{"tokenize.rows", "count"},
	{"cluster.sharded_share", "ratio"}, {"cluster.distinct_ratio", "ratio"},
	{"synth.plans_per_source", "count"},
	{"daemon.admitted", "count"},
	{"routing.node_share", "ratio"},
}

// residualBound is the largest share of a workload's median end-to-end
// unit time that the layers may leave unaccounted for: the largest
// residual seen over eleven traced runs on a 2-vCPU VM (27%, 27% and 29%
// of the end-to-end time) plus ten points or more for the host's noise.
// What remains is the server's request handling outside the layers'
// exported functions, its garbage collection, and scheduling; a layer
// missing from the breakdown pushes the residual past the bound and the
// traced run fails. README.md says which layers are large enough for
// that.
var residualBound = map[string]float64{"interactive": 0.4, "bulk": 0.4, "serve": 0.4}

// traceServeWindow is how much of the serve schedule the traced run
// sends; tracePasses is how many traced (and as many untraced) replay
// passes it makes over the inputs.
const (
	traceServeWindow = 4 * time.Second
	tracePasses      = 2
)

// layerRun is one workload's traced run.
type layerRun struct {
	w        string
	t        *tracer
	units    int               // units per pass
	http     map[int]float64   // unit -> median end-to-end ms over HTTP
	wire     map[int][]message // unit -> the HTTP exchanges it makes
	wireMS   map[int]float64   // unit -> median ms of those exchanges against an echo server
	hop      float64           // ms the proxy adds to one request (serve)
	traced   float64           // ms, summed unit roots over the traced passes
	untraced float64           // ms, summed units over the untraced passes
	before   []nodeStats
	after    []nodeStats
	attempts int
	failed   int
	errs     []string
}

// replayPasses runs one warm-up pass, then alternates untraced and
// traced passes of fn over units 0..n-1. Each pass first sends every
// unit to the fleet over HTTP (send), back to back, then its exchanges
// to an echo server, then replays it, so that the three timings of a
// unit are taken minutes apart at most, under like conditions of the
// host; a unit's HTTP and transport times are their medians over the
// passes after the warm-up.
func (lr *layerRun) replayPasses(n int, send func(i int) error, fn func(i int, t *tracer) error) error {
	lr.units = n
	lr.t = newTracer()
	echo := newEchoServer(lr.wire)
	defer echo.close()
	viaHTTP, wire := make([]timings, n), make([]timings, n)
	for pass := -1; pass < 2*tracePasses; pass++ {
		for i := 0; i < n; i++ {
			lr.attempts++
			t0 := time.Now()
			if err := send(i); err != nil {
				lr.failed++
				if len(lr.errs) < 5 {
					lr.errs = append(lr.errs, err.Error())
				}
			} else if pass >= 0 {
				viaHTTP[i].add(time.Since(t0))
			}
		}
		for i := 0; i < n; i++ {
			d, err := echo.time(lr.wire[i])
			if err != nil {
				return err
			}
			if pass >= 0 {
				wire[i].add(d)
			}
		}
		var t *tracer
		if pass >= 0 && pass%2 == 1 {
			t = lr.t
		}
		for i := 0; i < n; i++ {
			if t != nil {
				t.unit = i
			}
			runtime.GC() // each unit starts from the same heap state
			t0 := time.Now()
			if err := fn(i, t); err != nil {
				return err
			}
			if pass >= 0 && t == nil {
				lr.untraced += float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}
	}
	for i := 0; i < n; i++ {
		if len(viaHTTP[i]) > 0 {
			lr.http[i], lr.wireMS[i] = viaHTTP[i].quantile(0.5), wire[i].quantile(0.5)
		}
	}
	for _, s := range lr.t.spans {
		if s.Parent < 0 && !s.Probe {
			lr.traced += float64(s.dur()) / float64(time.Millisecond)
		}
	}
	return nil
}

// perUnit is a layer's summed self time per unit of work.
func (lr *layerRun) perUnit(sums map[string]float64, name string) float64 {
	return sums[name] / float64(lr.units*tracePasses)
}

// perCall is a layer's self time per call, from its summed self time.
func (t *tracer) perCall(sums map[string]float64, name string) float64 {
	return ratio(sums[name], float64(t.count(name)))
}

// reconcile compares each unit's end-to-end time over HTTP with the
// self time its layers account for in the replay, plus the two layers
// measured over HTTP itself: the transport (the unit's own requests and
// replies through net/http on both ends, loopback) and the proxy hop. It
// prints the per-layer table.
func (lr *layerRun) reconcile() (residual, overheadPct float64, err error) {
	self := lr.t.unitLayerSelf()
	var e2e timings
	res := map[int]float64{}
	for u, ms := range lr.http {
		e2e = append(e2e, ms)
		res[u] = ms - lr.wireMS[u] - lr.hop
		for _, v := range self[u] {
			res[u] -= v / tracePasses
		}
	}
	median := e2e.quantile(0.5)
	// leftOut is the residual, as a share of the end-to-end median, were
	// a layer taking part(u) ms of unit u missing from the breakdown.
	leftOut := func(part func(u int) float64) float64 {
		var r timings
		for u, v := range res {
			r = append(r, v+part(u))
		}
		return r.quantile(0.5) / median
	}
	residual = leftOut(func(int) float64 { return 0 }) * median
	overheadPct = 100 * (lr.traced - lr.untraced) / lr.untraced
	bound := residualBound[lr.w]
	fmt.Printf("reconcile %s: %d units, end-to-end median %.4f ms over HTTP\n", lr.w, len(e2e), median)
	row := func(name string, perUnit float64, part func(u int) float64, note string) {
		share := leftOut(part)
		caught := "not caught"
		if share > bound {
			caught = "caught"
		}
		fmt.Printf("reconcile %s: layer %-24s self %10.4f ms/unit; left out, residual %5.1f%% (%s)%s\n",
			lr.w, name, perUnit, 100*share, caught, note)
	}
	sums := lr.t.layerSums(false)
	for _, name := range sortedKeys(sums) {
		row(name, lr.perUnit(sums, name), func(u int) float64 { return self[u][name] / tracePasses }, "")
	}
	var wire float64
	for _, ms := range lr.wireMS {
		wire += ms
	}
	row("daemon.transport", wire/float64(len(lr.wireMS)), func(u int) float64 { return lr.wireMS[u] }, " measured over HTTP")
	if lr.hop != 0 {
		row("fleet.proxy_hop", lr.hop, func(int) float64 { return lr.hop }, " measured over HTTP")
	}
	probes := lr.t.layerSums(true)
	for _, name := range sortedKeys(probes) {
		fmt.Printf("reconcile %s: probe %-24s      %10.4f ms/unit (re-run outside the unit)\n", lr.w, name, lr.perUnit(probes, name))
	}
	share := residual / median
	fmt.Printf("reconcile %s: residual_ms %.4f (%.1f%% of end-to-end; bound %.0f%%) trace_overhead_pct %.2f\n",
		lr.w, residual, 100*share, 100*bound, overheadPct)
	if share > bound {
		return residual, overheadPct, fmt.Errorf("%s: residual %.3f ms is %.1f%% of the end-to-end time, above the %.0f%% bound: a layer is missing from the breakdown",
			lr.w, residual, 100*share, 100*bound)
	}
	return residual, overheadPct, nil
}

// runTraced is the per-layer run. For each workload in turn it sets up
// the fleet once, sends a fixed slice of the workload's inputs over HTTP
// (reading /v1/stats before and after), then replays the same inputs in
// the same order in process, untraced and traced, each unit sent over
// HTTP again beside its replay, and reconciles the two.
func runTraced(o options) (result, error) {
	res := result{Metrics: map[string]metricVal{}}
	m := map[string]float64{}
	template := filepath.Join(o.work, "template")
	if err := makeTemplate(template, o.seed); err != nil {
		return res, err
	}
	runs := map[string]*layerRun{}
	for _, w := range workloads {
		dir := filepath.Join(o.work, w)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return res, err
		}
		in, err := prepare(o, w, traceServeWindow)
		if err != nil {
			return res, err
		}
		lr := &layerRun{w: w, http: map[int]float64{}, wire: map[int][]message{}, wireMS: map[int]float64{}}
		f, _, err := setUp(o, w, dir, template, in)
		if err != nil {
			return res, err
		}
		err = tracedHTTP(o, f, w, in, lr, m)
		if err == nil {
			err = tracedReplay(f, w, dir, in, lr, m)
		}
		f.stop()
		if err != nil {
			return res, err
		}
		if w == "interactive" {
			m["synth.plans_per_source"] = plansPerSource(in.pool)
		}
		r, oh, err := lr.reconcile()
		m["residual_ms."+w], m["trace_overhead_pct."+w] = r, oh
		if err != nil {
			return res, err
		}
		if err := lr.t.write(filepath.Join(o.work, "spans-"+w+".json")); err != nil {
			return res, err
		}
		res.Attempted += lr.attempts
		res.Failed += lr.failed
		for _, e := range lr.errs {
			fmt.Println("failure", w, e)
		}
		runs[w] = lr
	}
	layerMetrics(runs, m)
	labelBreakdown(runs["interactive"])
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return res, fmt.Errorf("traced run did not measure %s", d.name)
		}
		fmt.Printf("layer %s = %.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
	}
	for _, d := range layerProps {
		v, ok := m[d.name]
		if !ok {
			return res, fmt.Errorf("traced run did not measure %s", d.name)
		}
		fmt.Printf("layer %s = %.6g %s (property)\n", d.name, v, d.unit)
	}
	return res, nil
}

// tracedHTTP is the traced run's HTTP phase: the workload's own loop
// over a fixed slice of the inputs, node counters read before and after.
func tracedHTTP(o options, f *testbed, w string, in *inputs, lr *layerRun, m map[string]float64) error {
	var err error
	if lr.before, err = f.scrape(); err != nil {
		return err
	}
	var px0, px1 proxyStats
	if f.proxy != nil {
		if err := getJSON(f.proxy.url+"/v1/proxy/stats", &px0); err != nil {
			return err
		}
	}
	switch w {
	case "interactive":
		r := runInteractive(f.front, in.pool, o.seed, 1, 0, len(in.pool))
		lr.attempts, lr.failed, lr.errs = r.attempts, r.failed, r.errs
	case "bulk":
		r := runBulk(f.front, in.progs, in.bodies, 0, len(in.bodies))
		lr.attempts, lr.failed, lr.errs = r.attempts, r.failed, r.errs
	case "serve":
		r := runServe(f.front, in.items, in.progs)
		lr.attempts, lr.failed, lr.errs = r.attempts, r.failed, r.errs
		var late, open timings
		for _, s := range r.samples {
			late.add(s.lateness)
			open.add(s.service)
		}
		m["driver.lateness_p99_ms"] = late.quantile(0.99)
		// The open loop leaves the machine idle between arrivals, and
		// waking every process on the path again costs a request more
		// than most layers do. That is the host's, not the program's, so
		// the replay phase sends the same requests back to back.
		fmt.Printf("reconcile serve: request median %.4f ms open loop at %d/s; the reconciliation below sends the same requests back to back\n",
			open.quantile(0.5), serveRate)
		hop, err := proxyHop(f, in)
		if err != nil {
			return err
		}
		m["fleet.proxy_hop_ms"], lr.hop = hop, hop
		if err := getJSON(f.proxy.url+"/v1/proxy/stats", &px1); err != nil {
			return err
		}
		var total int64
		for i := range px1.Backends {
			total += px1.Backends[i].Picks - px0.Backends[i].Picks
		}
		m["routing.node_share"] = ratio(float64(px1.Backends[0].Picks-px0.Backends[0].Picks), float64(total))
		m["fleet.retries"] = float64(px1.Retries - px0.Retries)
	}
	lr.after, err = f.scrape()
	return err
}

// proxyHop sends the same apply requests directly to the leader and
// through the proxy, alternating, and returns the difference of the
// medians: what the proxy hop adds to one request.
func proxyHop(f *testbed, in *inputs) (float64, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var direct, proxied timings
	n := 0
	for _, it := range in.items {
		if it.op != opApply {
			continue
		}
		if n++; n > 150 {
			break
		}
		for k := 0; k < 2; k++ {
			base, into := f.nodes[0].url, &direct
			if (n+k)%2 == 1 {
				base, into = f.proxy.url, &proxied
			}
			t0 := time.Now()
			code, b, err := call(hc, "POST", base+it.path(in.progs), it.body)
			into.add(time.Since(t0))
			if err == nil {
				err = checkServe(it, code, b)
			}
			if err != nil {
				return 0, err
			}
		}
	}
	fmt.Printf("reconcile serve: apply median %.4f ms direct, %.4f ms through the proxy\n", direct.quantile(0.5), proxied.quantile(0.5))
	return proxied.quantile(0.5) - direct.quantile(0.5), nil
}

// tracedReplay replays the workload's inputs in process (see replayPasses).
func tracedReplay(f *testbed, w, dir string, in *inputs, lr *layerRun, m map[string]float64) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	switch w {
	case "interactive":
		env, err := newReplayEnv(filepath.Join(dir, "replay"))
		if err != nil {
			return err
		}
		defer env.reg.Close()
		c0 := synth.SynthesizeCalls()
		for i, s := range in.pool {
			lr.wire[i] = sessionMessages(s)
		}
		send := func(i int) error {
			_, err := runSessionHTTP(hc, f.front, in.pool[i])
			return err
		}
		err = lr.replayPasses(len(in.pool), send, func(i int, t *tracer) error {
			_, err := replaySession(in.pool[i], t, env)
			return err
		})
		m["synth.calls"] = float64(synth.SynthesizeCalls()-c0) / float64(2*tracePasses+1)
		return err
	case "bulk":
		env, err := newReplayEnv(filepath.Join(dir, "replay"))
		if err != nil {
			return err
		}
		defer env.reg.Close()
		for _, p := range in.progs {
			if _, err := env.reg.Register(p.raw, progstore.Meta{ID: p.id, Name: p.name}); err != nil {
				return err
			}
		}
		var rows, mallocs int64
		var run, apply time.Duration
		for i, b := range in.bodies {
			lr.wire[i] = []message{streamMessage(b)}
		}
		send := func(i int) error {
			b := in.bodies[i]
			_, err := runStreamHTTP(hc, f.front+"/v1/programs/"+in.progs[b.prog].id+"/apply/stream", b)
			return err
		}
		err = lr.replayPasses(len(in.bodies), send, func(i int, t *tracer) error {
			b := in.bodies[i]
			rep, err := replayStream(b, in.progs[b.prog].id, t, env)
			if t != nil {
				rows += rep.rows
				mallocs += rep.mallocs
				run += rep.streamRun
				apply += rep.autoApply
			}
			return err
		})
		if err != nil {
			return err
		}
		compile := newTracer()
		compile.probing(func() {
			for k := 0; k < 5; k++ {
				for _, p := range in.progs {
					probeCompile(compile, p.raw)
				}
			}
		})
		m["automaton.compile_ms"] = compile.perCall(compile.layerSums(true), "automaton.compile")
		m["automaton.apply_rows_per_s"] = ratio(float64(rows), apply.Seconds())
		m["stream.run_rows_per_s"] = ratio(float64(rows), run.Seconds())
		m["stream.allocs_per_row"] = ratio(float64(mallocs), float64(rows))
		return nil
	case "serve":
		leader, err := progstore.Open(filepath.Join(dir, "replay-leader"))
		if err != nil {
			return err
		}
		defer leader.Close()
		fst, err := progstore.Open(filepath.Join(dir, "replay-follower"))
		if err != nil {
			return err
		}
		defer fst.Close()
		srv, err := daemon.New(fst, daemon.Config{})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		repl := fleet.NewReplicator(leader, []string{ts.URL}, fleet.ReplicatorOptions{})
		defer repl.Close()
		// Seed ids outside the p%06d space, so the replayed registrations'
		// minted ids never overwrite them.
		env := &serveEnv{reg: leader, repl: repl}
		for _, p := range in.progs {
			id := "seed-" + p.name
			if _, err := leader.Register(p.raw, progstore.Meta{ID: id, Name: p.name, RowCount: len(p.rows)}); err != nil {
				return err
			}
			env.ids = append(env.ids, id)
		}
		repl.Flush()
		for i, it := range in.items {
			lr.wire[i] = []message{serveMessage(it)}
		}
		send := func(i int) error {
			it := in.items[i]
			code, b, err := call(hc, "POST", f.front+it.path(in.progs), it.body)
			if err == nil {
				err = checkServe(it, code, b)
			}
			return err
		}
		err = lr.replayPasses(len(in.items), send, func(i int, t *tracer) error {
			return replayServe(in.items[i], in.progs, t, env)
		})
		if err != nil {
			return err
		}
		p, _ := routing.New("round-robin")
		backends := []routing.Backend{{ID: "n0"}, {ID: "n1"}}
		const picks = 200000
		t0 := time.Now()
		for i := 0; i < picks; i++ {
			p.Pick("", backends)
		}
		m["routing.pick_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / picks
		return nil
	}
	return nil
}

// delta returns after minus before of one counter on node i.
func delta(lr *layerRun, i int, get func(nodeStats) int64) float64 {
	return float64(get(lr.after[i]) - get(lr.before[i]))
}

// layerMetrics derives the per-layer metrics from the spans and the
// nodes' counters.
func layerMetrics(runs map[string]*layerRun, m map[string]float64) {
	ir, br, sr := runs["interactive"], runs["bulk"], runs["serve"]
	is, ip := ir.t.layerSums(false), ir.t.layerSums(true)
	m["tokenize.busy_ms"] = ir.perUnit(is, "tokenize.busy")
	m["tokenize.rows"] = delta(ir, 0, func(s nodeStats) int64 { return s.ProfileIndex.RowsProfiled })
	m["cluster.profile_ms"] = ir.perUnit(is, "cluster.profile")
	m["cluster.append_ms"] = ir.perUnit(is, "cluster.append")
	m["cluster.constants_ms"] = ir.perUnit(is, "cluster.constants")
	m["cluster.sharded_share"] = ratio(delta(ir, 0, func(s nodeStats) int64 { return s.ProfileIndex.ShardedProfiles }),
		delta(ir, 0, func(s nodeStats) int64 { return s.ProfileIndex.Profiles }))
	m["cluster.distinct_ratio"] = ratio(delta(ir, 0, func(s nodeStats) int64 { return s.ProfileIndex.DistinctValues }),
		delta(ir, 0, func(s nodeStats) int64 { return s.ProfileIndex.RowsProfiled }))
	m["synth.synthesize_ms"] = ir.perUnit(is, "synth.synthesize")
	m["align.align_ms"] = ir.perUnit(ip, "align.align")
	m["mdl.topk_ms"] = ir.perUnit(ip, "mdl.topk")
	m["clx.repair_candidates_ms"] = ir.perUnit(is, "clx.repair_candidates")
	m["clx.repair_candidates_calls"] = float64(ir.t.count("clx.repair_candidates")) / tracePasses
	m["clx.run_ms"] = ir.perUnit(is, "clx.run")
	m["clx.export_ms"] = ir.perUnit(is, "clx.export")
	m["replace.explain_ms"] = ir.perUnit(is, "replace.explain")
	m["replace.preview_ms"] = ir.perUnit(is, "replace.preview")
	hits := delta(ir, 0, func(s nodeStats) int64 { return s.MatcherCache.Hits })
	m["rematch.cache_hit_ratio"] = ratio(hits, hits+delta(ir, 0, func(s nodeStats) int64 { return s.MatcherCache.Misses }))
	m["rematch.match_ms"] = ir.perUnit(ip, "rematch.match")
	m["daemon.decode_ms"] = ir.perUnit(is, "daemon.decode")
	m["daemon.encode_ms"] = ir.perUnit(is, "daemon.encode")
	m["sessionstore.create_ms"] = ir.perUnit(is, "sessionstore.create")
	m["sessionstore.acquire_wait_ms"] = ir.perUnit(is, "sessionstore.acquire")
	m["sessionstore.rejected"] = delta(ir, 0, func(s nodeStats) int64 { return s.Sessions.Rejected })

	bs, bp := br.t.layerSums(false), br.t.layerSums(true)
	a := br.after[0].Automaton
	m["automaton.fallback_share"] = ratio(float64(a.Fallback), float64(a.Compiled+a.Fallback))
	m["stream.peak_in_flight"] = float64(br.after[0].Streaming.PeakInFlight)
	m["daemon.decode_ms.bulk"] = br.perUnit(bp, "daemon.decode")
	m["daemon.encode_ms.bulk"] = br.perUnit(bp, "stream.encode") + br.perUnit(bs, "daemon.encode")
	m["daemon.admitted"] = delta(br, 0, func(s nodeStats) int64 { return s.Admission.Admitted })
	m["daemon.rejected"] = delta(br, 0, func(s nodeStats) int64 { return s.Admission.Rejected })

	ss := sr.t.layerSums(false)
	m["daemon.decode_ms.serve"] = sr.perUnit(ss, "daemon.decode")
	m["daemon.encode_ms.serve"] = sr.perUnit(ss, "daemon.encode")
	m["progstore.register_ms"] = sr.t.perCall(ss, "progstore.register")
	m["progstore.apply_ms"] = sr.t.perCall(ss, "progstore.apply")
	m["fleet.ship_ms"] = sr.t.perCall(ss, "fleet.ship")
	m["fleet.resyncs"] = delta(sr, 0, func(s nodeStats) int64 {
		var n int64
		if s.Replication.Leader != nil {
			for _, f := range s.Replication.Leader.Followers {
				n += f.SnapshotsPushed
			}
		}
		return n
	})

}

// plansPerSource averages the ranked plans per source over the oracle's
// label replies.
func plansPerSource(pool []*sessionSpec) float64 {
	var plans, sources int
	for _, s := range pool {
		var lr sessionLabelResponse
		if json.Unmarshal(s.exp.label, &lr) != nil {
			continue
		}
		for _, src := range lr.Sources {
			plans += src.Plans
			sources++
		}
	}
	return ratio(float64(plans), float64(sources))
}

// labelBreakdown prints where the interactive label step goes: the self
// time of each layer under the label handler, per session.
func labelBreakdown(lr *layerRun) {
	self := lr.t.selfTimes()
	sums := map[string]float64{}
	for i, s := range lr.t.spans {
		if s.Name == "op.label" || underLabel(lr.t, i) {
			sums[s.layer()] += float64(self[i]) / float64(time.Millisecond)
		}
	}
	for _, name := range sortedKeys(sums) {
		fmt.Printf("label_breakdown %-28s %10.4f ms/session\n", name, lr.perUnit(sums, name))
	}
}

// underLabel reports whether span i sits below an op.label span.
func underLabel(t *tracer, i int) bool {
	for p := t.spans[i].Parent; p >= 0; p = t.spans[p].Parent {
		if t.spans[p].Name == "op.label" {
			return true
		}
	}
	return false
}
