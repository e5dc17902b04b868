package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	clx "clx"
	"clx/internal/align"
	"clx/internal/automaton"
	"clx/internal/dataset"
	"clx/internal/mdl"
	"clx/internal/pattern"
	"clx/internal/progstore"
	"clx/internal/rematch"
	"clx/internal/sessionstore"
	"clx/internal/synth"
	"clx/internal/unifi"
)

// The interactive workload: the paper's user loop, one whole session per
// unit of work, each client an analyst who waits for every reply.

// sessionKinds are the column kinds a session draws from.
var sessionKinds = []string{"phones", "dates", "lowcard"}

// The session pool's column sizes run on a geometric ladder from
// poolMinRows to poolMaxRows, across the 4096-row threshold where
// cluster.ProfileWithStats switches from the serial to the sharded plan
// (the create upload carries 95% of the column). A ladder rather than a
// few fixed sizes keeps the median and the tail inside a dense part of
// the session-time distribution, not in a gap between size classes.
const (
	poolSessions = 36
	poolMinRows  = 1500
	poolMaxRows  = 16000
)

// sessionSpec is one session's input and the oracle's expected replies.
type sessionSpec struct {
	kind   string
	create []string
	added  []string
	target string

	createBody, appendBody, labelBody, commitBody []byte
	exp                                           *sessionExpect
}

func (s *sessionSpec) rows() int { return len(s.create) + len(s.added) }

// sessionExpect holds the library path's answers for one session.
type sessionExpect struct {
	created    sessionJSON // id and timestamps ignored
	clusters   []byte
	appended   sessionJSON
	label      []byte
	candidates []byte // GET repair?source=0; nil when there is no source
	pick       int    // alternative POSTed to repair; -1 when there is none
	repaired   []byte
	commit     programEntryJSON // id and creation time ignored
	sharded    bool
	distinct   int
}

// sessionPool draws the interactive inputs: one session per rung of the
// size ladder, the kinds taking the rungs in turn, in seeded order, each
// column from its own seed. Tiny mode (the self-test) uses six small
// rungs that still straddle the plan switch.
func sessionPool(seed int64, tiny bool) []*sessionSpec {
	n, lo, hi := poolSessions, float64(poolMinRows), float64(poolMaxRows)
	if tiny {
		n, lo, hi = 6, 300, 4600
	}
	r := rand.New(rand.NewSource(seed))
	var pool []*sessionSpec
	for i := 0; i < n; i++ {
		size := int(math.Round(lo * math.Pow(hi/lo, float64(i)/float64(n-1))))
		pool = append(pool, newSessionSpec(sessionKinds[i%len(sessionKinds)], size, r.Int63()))
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func newSessionSpec(kind string, n int, seed int64) *sessionSpec {
	var rows []string
	var target string
	switch kind {
	case "phones":
		rows, _ = dataset.Phones(n, 6, seed)
		target = "<D>3'-'<D>3'-'<D>4"
	case "dates":
		rows, _ = dataset.Dates(n, seed)
		target = "<D>2'-'<D>2'-'<D>4"
	default: // lowcard: a few hundred distinct product ids, repeated
		vals := dataset.ProductIDs(300, seed)
		r := rand.New(rand.NewSource(seed + 1))
		rows = make([]string, n)
		for i := range rows {
			rows[i] = vals[r.Intn(len(vals))]
		}
		target = "<U>4'-'<D>4"
	}
	cut := n * 95 / 100
	s := &sessionSpec{kind: kind, create: rows[:cut], added: rows[cut:], target: target}
	s.createBody = encodeBody(rowsRequest{Rows: s.create})
	s.appendBody = encodeBody(rowsRequest{Rows: s.added})
	s.labelBody = encodeBody(labelRequest{Target: target})
	s.commitBody = encodeBody(commitRequest{Name: kind})
	return s
}

// replayEnv is the in-process stand-in for one clxd node: the same
// session store and durable registry the daemon wires together.
type replayEnv struct {
	sessions *sessionstore.Store
	reg      *progstore.Store
	opts     clx.Options
}

func newReplayEnv(dir string) (*replayEnv, error) {
	reg, err := progstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &replayEnv{
		sessions: sessionstore.New(sessionstore.Config{TTL: 15 * time.Minute, MaxSessions: 256}),
		reg:      reg,
		opts:     clx.DefaultOptions(),
	}, nil
}

// decodeStrict decodes a request body as the daemon does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// profileChildren attributes a profile pass's phase timings, as the
// cluster layer reports them, to tokenize, constant discovery and the
// rest of profiling.
func profileChildren(t *tracer, st clx.ProfileStats) {
	t.derive("tokenize.busy", st.Tokenize)
	t.derive("cluster.constants", st.Constants)
	t.derive("cluster.profile", st.Index+st.Group+st.Refine)
}

// replaySession runs one session through the layers' exported functions
// in the order the daemon's handlers call them, recording a span around
// each call, and returns the replies the daemon must send. With t nil it
// is the benchmark's output oracle.
func replaySession(s *sessionSpec, t *tracer, env *replayEnv) (*sessionExpect, error) {
	e := &sessionExpect{pick: -1}
	var err error
	t.begin("session")

	acquire := func(id string) (*sessionstore.Handle, func()) {
		var h *sessionstore.Handle
		var release func()
		t.do("sessionstore.acquire", func() { h, release, err = env.sessions.Acquire(id) })
		return h, release
	}
	encode := func(v any) (b []byte) {
		t.do("daemon.encode", func() { b = encodeBody(v) })
		return b
	}
	decode := func(body []byte, v any) {
		t.do("daemon.decode", func() { err = decodeStrict(body, v) })
	}

	// create
	t.begin("op.create")
	var cr rowsRequest
	decode(s.createBody, &cr)
	var h *sessionstore.Handle
	t.begin("sessionstore.create")
	h, err = env.sessions.Create("", cr.Rows, env.opts)
	if err != nil {
		return nil, err
	}
	st := h.Session().ProfileStats()
	profileChildren(t, st)
	t.end()
	e.sharded, e.distinct = st.Sharded, st.DistinctValues
	id := h.ID()
	h, release := acquire(id)
	e.created = sessionJSONOf(h)
	encode(e.created)
	release()
	t.end()

	// clusters
	t.begin("op.clusters")
	h, release = acquire(id)
	var cs []clx.Cluster
	t.do("clx.clusters", func() { cs = h.Session().Clusters() })
	e.clusters = encode(clusterResponse{Clusters: toClusterJSON(cs)})
	release()
	t.end()

	// append
	t.begin("op.append")
	var ar rowsRequest
	decode(s.appendBody, &ar)
	h, release = acquire(id)
	t.begin("cluster.append")
	profileChildren(t, h.Session().AppendAndReprofile(ar.Rows))
	t.end()
	e.appended = sessionJSONOf(h)
	encode(sessionAppendResponse{sessionJSON: e.appended, Appended: len(ar.Rows)})
	release()
	t.end()

	// label
	t.begin("op.label")
	var lr labelRequest
	decode(s.labelBody, &lr)
	target, err := clx.ParseAnyPattern(lr.Target)
	if err != nil {
		return nil, err
	}
	h, release = acquire(id)
	var tr *clx.Transformation
	t.do("synth.synthesize", func() { tr, err = h.Session().Label(target) })
	if err != nil {
		return nil, err
	}
	h.SetTransformation(tr)
	e.label = encode(labelResponse(t, h))
	release()
	t.end()

	if len(tr.Sources()) > 0 {
		t.begin("op.candidates")
		h, release = acquire(id)
		var cands []clx.RepairCandidate
		t.do("clx.repair_candidates", func() { cands = tr.RepairCandidates(0) })
		e.candidates = encode(repairCandidatesResponse{Source: 0, Candidates: toCandidatesJSON(cands)})
		release()
		t.end()
		for _, c := range cands {
			if !c.Selected {
				e.pick = c.Alt
				break
			}
		}
	}
	var repairs []progstore.Repair
	if e.pick >= 0 {
		t.begin("op.repair")
		var rr repairJSON
		decode(encodeBody(repairJSON{Source: 0, Alt: e.pick}), &rr)
		h, release = acquire(id)
		t.do("clx.repair", func() { err = tr.Repair(0, e.pick) })
		if err != nil {
			return nil, err
		}
		repairs = []progstore.Repair{{Source: 0, Alt: e.pick}}
		e.repaired = encode(labelResponse(t, h))
		release()
		t.end()
	}

	// commit
	t.begin("op.commit")
	var cm commitRequest
	decode(s.commitBody, &cm)
	h, release = acquire(id)
	var raw []byte
	t.do("clx.export", func() { raw, err = tr.Export() })
	if err != nil {
		return nil, err
	}
	var entry progstore.Entry
	t.do("progstore.register", func() {
		entry, err = env.reg.Register(raw, progstore.Meta{Name: cm.Name, RowCount: h.Session().ProfileStats().Rows, Repairs: repairs})
	})
	if err != nil {
		return nil, err
	}
	e.commit = entryJSON(entry)
	e.commit.Flagged = tr.Unmatched()
	encode(e.commit)
	release()
	t.end()

	t.begin("op.delete")
	t.do("sessionstore.delete", func() { env.sessions.Delete(id) })
	encode(map[string]string{"deleted": id})
	t.end()

	t.end()
	t.probing(func() { probeLabel(t, tr, target, raw, append(s.create[:len(s.create):len(s.create)], s.added...)) })
	return e, nil
}

// labelResponse mirrors the daemon's label/repair reply, timing the
// replace-layer rendering, repair ranking and the column run.
func labelResponse(t *tracer, h *sessionstore.Handle) sessionLabelResponse {
	tr := h.Transformation()
	resp := sessionLabelResponse{Generation: tr.Generation()}
	t.do("replace.explain", func() {
		ops, prog := explainOps(tr)
		t.do("replace.preview", func() { previewOps(ops, prog, h.Session().Data()) })
		resp.Ops = ops
	})
	for i, src := range tr.Sources() {
		var n int
		t.do("clx.repair_candidates", func() { n = len(tr.RepairCandidates(i)) })
		resp.Sources = append(resp.Sources, sessionSourceJSON{Index: i, Pattern: src.String(), Plans: n})
	}
	t.do("clx.run", func() { _, resp.Flagged = tr.Run() })
	resp.Clean = tr.Clean()
	return resp
}

// probeLabel re-runs, outside the session, the inner calls Session.Label
// and progstore.Register make without a span of their own: alignment and
// MDL ranking per solved source, matching the column against the target,
// and compiling the committed program's automaton.
func probeLabel(t *tracer, tr *clx.Transformation, target pattern.Pattern, raw []byte, rows []string) {
	pool := synth.DefaultOptions().K * 8
	for _, src := range tr.Sources() {
		var dag *align.DAG
		t.do("align.align", func() { dag = align.Align(target, src) })
		t.do("mdl.topk", func() { mdl.TopK(dag, src, pool) })
	}
	t.do("rematch.match", func() {
		m := rematch.CompileCached(target.Tokens())
		for _, r := range rows {
			m.Matches(r)
		}
	})
	probeCompile(t, raw)
}

// probeCompile times compiling an exported program's byte automaton,
// the step LoadProgram runs inside progstore.Register.
func probeCompile(t *tracer, raw []byte) {
	var sj struct {
		Target string          `json:"target"`
		Cases  json.RawMessage `json:"cases"`
	}
	if json.Unmarshal(raw, &sj) != nil {
		return
	}
	tp, err := pattern.Parse(sj.Target)
	if err != nil {
		return
	}
	var gp unifi.GuardedProgram
	if json.Unmarshal([]byte(`{"cases":`+string(sj.Cases)+`}`), &gp) != nil {
		return
	}
	t.do("automaton.compile", func() { _, _ = automaton.CompileSaved(tp, gp) })
}

func sessionJSONOf(h *sessionstore.Handle) sessionJSON {
	sess := h.Session()
	st := sess.ProfileStats()
	j := sessionJSON{
		ID: h.ID(), Rows: st.Rows, DistinctValues: st.DistinctValues, LeafPatterns: st.LeafPatterns,
		Levels: sess.Levels(), Generation: sess.Generation(), Created: h.CreatedAt(), LastUsed: h.LastUsed(),
	}
	if tr := h.Transformation(); tr != nil {
		j.Labeled, j.Stale = true, tr.Stale()
	}
	return j
}

func entryJSON(e progstore.Entry) programEntryJSON {
	j := programEntryJSON{
		ID: e.ID, Version: e.Version, CreatedAtUnix: e.CreatedAtUnix, Name: e.Name,
		Target: e.Target, Sources: e.Sources, RowCount: e.RowCount, Program: e.Program,
	}
	for _, r := range e.Repairs {
		j.Repairs = append(j.Repairs, repairJSON{Source: r.Source, Alt: r.Alt})
	}
	return j
}

// sameSession compares the session document fields a reply must carry,
// ignoring the minted id and the timestamps.
func sameSession(what string, got []byte, want sessionJSON) (string, error) {
	var g sessionJSON
	if err := json.Unmarshal(got, &g); err != nil {
		return "", fmt.Errorf("%s: %w", what, err)
	}
	g.Created, g.LastUsed = want.Created, want.LastUsed
	id := g.ID
	g.ID = want.ID
	if g != want {
		return "", fmt.Errorf("%s: session document differs from the oracle: %+v vs %+v", what, g, want)
	}
	return id, nil
}

// sameEntry compares a registry entry reply with the oracle's, ignoring
// the minted id and the registration time.
func sameEntry(what string, got []byte, want programEntryJSON) error {
	var g programEntryJSON
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	g.ID, g.CreatedAtUnix = want.ID, want.CreatedAtUnix
	if string(encodeBody(g)) != string(encodeBody(want)) {
		return fmt.Errorf("%s: registry entry differs from the oracle", what)
	}
	return nil
}

// sessionSample is one session's timings over HTTP.
type sessionSample struct {
	total, create, label time.Duration
	spec                 int // index into the pool
	seq                  int // order in which the session was started
}

// runSessionHTTP drives one whole session against the node and checks
// every reply against the oracle.
func runSessionHTTP(hc *http.Client, base string, s *sessionSpec) (sessionSample, error) {
	var smp sessionSample
	e := s.exp
	t0 := time.Now()
	b, err := expectStatus(hc, "POST", base+"/v1/sessions", s.createBody, http.StatusCreated)
	smp.create = time.Since(t0)
	if err != nil {
		return smp, err
	}
	id, err := sameSession("create", b, e.created)
	if err != nil {
		return smp, err
	}
	u := base + "/v1/sessions/" + id
	// Delete on every path, so a failed session never holds a slot.
	defer func() {
		if err != nil {
			_, _, _ = call(hc, "DELETE", u, nil)
		}
	}()
	if b, err = expectStatus(hc, "GET", u+"/clusters", nil, http.StatusOK); err != nil {
		return smp, err
	}
	if err = sameBody("clusters", b, e.clusters); err != nil {
		return smp, err
	}
	if b, err = expectStatus(hc, "POST", u+"/append", s.appendBody, http.StatusOK); err != nil {
		return smp, err
	}
	if _, err = sameSession("append", b, e.appended); err != nil {
		return smp, err
	}
	tl := time.Now()
	b, err = expectStatus(hc, "POST", u+"/label", s.labelBody, http.StatusOK)
	smp.label = time.Since(tl)
	if err != nil {
		return smp, err
	}
	if err = sameBody("label", b, e.label); err != nil {
		return smp, err
	}
	if e.candidates != nil {
		if b, err = expectStatus(hc, "GET", u+"/repair?source=0", nil, http.StatusOK); err != nil {
			return smp, err
		}
		if err = sameBody("repair candidates", b, e.candidates); err != nil {
			return smp, err
		}
	}
	if e.pick >= 0 {
		body := []byte(`{"source":0,"alt":` + strconv.Itoa(e.pick) + `}`)
		if b, err = expectStatus(hc, "POST", u+"/repair", body, http.StatusOK); err != nil {
			return smp, err
		}
		if err = sameBody("repair", b, e.repaired); err != nil {
			return smp, err
		}
	}
	if b, err = expectStatus(hc, "POST", u+"/commit", s.commitBody, http.StatusCreated); err != nil {
		return smp, err
	}
	if err = sameEntry("commit", b, e.commit); err != nil {
		return smp, err
	}
	if _, err = expectStatus(hc, "DELETE", u, nil, http.StatusOK); err != nil {
		return smp, err
	}
	smp.total = time.Since(t0)
	return smp, nil
}

// interactiveResult collects the HTTP phase of the interactive workload.
type interactiveResult struct {
	samples  []sessionSample
	failed   int
	attempts int
	errs     []string
}

// runInteractive runs sessions from the pool on closed-loop clients,
// each taking the next session in turn, until the deadline passes (or,
// with limit > 0, until limit sessions have started). The first pass goes
// in pool order; every later pass in a fresh seeded order, so which
// sessions overlap on the two clients varies instead of repeating each
// pass. Only sessions of whole passes are kept as samples, so every run
// times the same mix of kinds and sizes.
func runInteractive(base string, pool []*sessionSpec, seed int64, clients int, dur time.Duration, limit int) interactiveResult {
	var res interactiveResult
	var mu sync.Mutex
	next := 0
	r := rand.New(rand.NewSource(seed))
	var order []int
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for {
				mu.Lock()
				if (limit > 0 && next >= limit) || (limit <= 0 && time.Now().After(deadline)) {
					mu.Unlock()
					return
				}
				seq := next
				next++
				res.attempts++
				if seq%len(pool) == 0 {
					order = r.Perm(len(pool))
					if seq == 0 {
						for i := range order {
							order[i] = i
						}
					}
				}
				spec := order[seq%len(pool)]
				mu.Unlock()
				smp, err := runSessionHTTP(hc, base, pool[spec])
				smp.spec, smp.seq = spec, seq
				mu.Lock()
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					res.samples = append(res.samples, smp)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if whole := res.attempts / len(pool) * len(pool); whole > 0 {
		kept := res.samples[:0]
		for _, smp := range res.samples {
			if smp.seq < whole {
				kept = append(kept, smp)
			}
		}
		res.samples = kept
	}
	return res
}
