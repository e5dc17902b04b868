package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"time"

	clx "clx"
	"clx/internal/dataset"
	"clx/internal/fleet"
	"clx/internal/loadgen"
	"clx/internal/progstore"
)

// The serve workload: many small requests from an open-loop Poisson
// schedule, through clxproxy to a leader and a follower with leader-push
// WAL replication.

const (
	opApply = iota
	opTransform
	opRegister
	numOps
)

var opNames = [numOps]string{"apply", "transform", "register"}

// serveRate is the mean arrival rate (requests/s), chosen well below the
// knee of this fleet on a 2-CPU machine (p99 and generator lateness climb
// from 300/s on) so the open loop measures service time, not a growing
// backlog or the two client goroutines queueing behind Poisson bursts.
const serveRate = 150

// opWeights is the read : one-shot compute : write mix.
var opWeights = [numOps]int{8, 2, 1}

// serveItem is one scheduled request and the oracle's expected reply.
type serveItem struct {
	at   time.Duration
	op   int
	prog int // seed program (apply) or column kind (transform, register)
	rows []string
	body []byte
	exp  []byte           // apply and transform: the whole reply
	ent  programEntryJSON // register: the entry, id and time ignored
}

// servePools are the columns request rows are cut from: phones and dates
// with one row in a hundred matching no source.
func servePools(seed int64) [][]string {
	phones, _ := dataset.Phones(4096, 6, seed+30)
	dates, _ := dataset.Dates(4096, seed+31)
	r := rand.New(rand.NewSource(seed + 32))
	for _, p := range [][]string{phones, dates} {
		for i := range p {
			if r.Intn(100) == 0 {
				p[i] = noiseRows[r.Intn(len(noiseRows))]
			}
		}
	}
	return [][]string{phones, dates}
}

// serveSchedule draws the open-loop schedule: Poisson arrivals at
// serveRate for dur, each an op from the weighted mix with 20–200 rows.
func serveSchedule(seed int64, dur time.Duration, progs []*seedProgram) []*serveItem {
	pools := servePools(seed)
	proc := loadgen.NewPoisson(serveRate, int(serveRate*dur.Seconds()*2)+10, seed+33)
	r := rand.New(rand.NewSource(seed + 34))
	total := 0
	for _, w := range opWeights {
		total += w
	}
	var items []*serveItem
	for {
		at, ok := proc.Next()
		if !ok || at >= dur {
			break
		}
		it := &serveItem{at: at, prog: r.Intn(len(progs))}
		for x := r.Intn(total); x >= opWeights[it.op]; it.op++ {
			x -= opWeights[it.op]
		}
		pool := pools[it.prog]
		n := 20 + r.Intn(181)
		lo := r.Intn(len(pool) - n)
		it.rows = pool[lo : lo+n]
		items = append(items, it)
	}
	return items
}

// fingerprint hashes the schedule's offsets, ops and rows.
func fingerprint(items []*serveItem) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(b[:8], uint64(it.at))
		b[8] = byte(it.op)
		h.Write(b[:])
		for _, s := range it.rows {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// path is the request's URL path; apply paths name the program id the
// node minted at set-up.
func (it *serveItem) path(progs []*seedProgram) string {
	switch it.op {
	case opApply:
		return "/v1/programs/" + progs[it.prog].id + "/apply"
	case opTransform:
		return "/v1/transform"
	}
	return "/v1/programs"
}

// expectServe encodes every request body and computes the oracle's
// replies with the library path: the registry's apply (SavedProgram.
// Transform plus the drift report) for reads, Session/Transformation for
// one-shot transforms and registrations.
func expectServe(items []*serveItem, progs []*seedProgram) error {
	reg, err := progstore.Open("")
	if err != nil {
		return err
	}
	defer reg.Close()
	// Registrations go to a registry of their own: their minted ids must
	// not collide with the seed programs' explicit ones.
	writes, err := progstore.Open("")
	if err != nil {
		return err
	}
	defer writes.Close()
	for _, p := range progs {
		if _, err := reg.Register(p.raw, progstore.Meta{ID: p.id, Name: p.name, RowCount: len(p.rows)}); err != nil {
			return err
		}
	}
	for _, it := range items {
		target := progs[it.prog].target
		switch it.op {
		case opApply:
			it.body = encodeBody(rowsRequest{Rows: it.rows})
			res, err := reg.Apply(progs[it.prog].id, it.rows, 0)
			if err != nil {
				return err
			}
			it.exp = encodeBody(res)
		case opTransform:
			it.body = encodeBody(transformRequest{Rows: it.rows, Target: target})
			resp, err := transformReply(nil, it.rows, target)
			if err != nil {
				return err
			}
			it.exp = encodeBody(resp)
		case opRegister:
			it.body = encodeBody(registerRequest{Rows: it.rows, Target: target, Name: "serve"})
			tr, err := synthesize(nil, it.rows, target)
			if err != nil {
				return err
			}
			raw, err := tr.Export()
			if err != nil {
				return err
			}
			e, err := writes.Register(raw, progstore.Meta{Name: "serve", RowCount: len(it.rows)})
			if err != nil {
				return err
			}
			it.ent = entryJSON(e)
			it.ent.Flagged = tr.Unmatched()
		}
	}
	return nil
}

// synthesize profiles rows and labels them with target, as the one-shot
// transform and register handlers do, timing both layer calls.
func synthesize(t *tracer, rows []string, target string) (*clx.Transformation, error) {
	tp, err := clx.ParseAnyPattern(target)
	if err != nil {
		return nil, err
	}
	t.begin("cluster.profile")
	sess := clx.NewSession(rows)
	st := sess.ProfileStats()
	t.derive("tokenize.busy", st.Tokenize)
	t.derive("cluster.constants", st.Constants)
	t.end()
	var tr *clx.Transformation
	t.do("synth.synthesize", func() { tr, err = sess.Label(tp) })
	return tr, err
}

// transformReply mirrors the daemon's one-shot transform, timing each
// layer call.
func transformReply(t *tracer, rows []string, target string) (transformResponse, error) {
	var resp transformResponse
	tr, err := synthesize(t, rows, target)
	if err != nil {
		return resp, err
	}
	t.do("replace.explain", func() {
		ops, prog := explainOps(tr)
		t.do("replace.preview", func() { previewOps(ops, prog, rows) })
		resp.Ops = ops
	})
	t.do("clx.run", func() { resp.Output, resp.Flagged = tr.Run() })
	resp.Clean = tr.Clean()
	t.do("clx.export", func() {
		if raw, err := tr.Export(); err == nil {
			resp.Program = raw
		}
	})
	return resp, nil
}

// serveSample is one request's outcome over HTTP.
type serveSample struct {
	op       int
	sched    time.Duration // from the scheduled send time to the reply
	service  time.Duration // from the actual send to the reply
	lateness time.Duration // actual send minus scheduled send
	item     int
	rows     int
}

// serveResult collects the HTTP phase of the serve workload.
type serveResult struct {
	samples  []serveSample
	failed   int
	attempts int
	errs     []string
}

// checkServe compares one reply with the oracle.
func checkServe(it *serveItem, code int, b []byte) error {
	want := http.StatusOK
	if it.op == opRegister {
		want = http.StatusCreated
	}
	if code != want {
		return fmt.Errorf("%s: status %d: %.200s", opNames[it.op], code, b)
	}
	if it.op == opRegister {
		return sameEntry("register", b, it.ent)
	}
	return sameBody(opNames[it.op], b, it.exp)
}

// runServe replays the schedule open loop on two client goroutines. Each
// request is timed from its scheduled send time, so a stall is charged
// to every request it delays; lateness records how far behind the
// schedule the generator sent.
func runServe(base string, items []*serveItem, progs []*seedProgram) serveResult {
	var res serveResult
	var mu sync.Mutex
	next := 0
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for {
				mu.Lock()
				if next >= len(items) {
					mu.Unlock()
					return
				}
				i := next
				next++
				res.attempts++
				mu.Unlock()
				it := items[i]
				due := start.Add(it.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				code, b, err := call(hc, "POST", base+it.path(progs), it.body)
				done := time.Now()
				if err == nil {
					err = checkServe(it, code, b)
				}
				mu.Lock()
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					res.samples = append(res.samples, serveSample{
						op: it.op, sched: done.Sub(due), service: done.Sub(sent),
						lateness: sent.Sub(due), item: i, rows: len(it.rows),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// serveEnv is the in-process stand-in for the leader: a durable registry
// whose writes a replicator ships to a follower node.
type serveEnv struct {
	reg  *progstore.Store
	repl *fleet.Replicator
	ids  []string // the seed programs' ids in reg
}

// replayServe runs one request through the layers' exported functions as
// the leader's handlers do.
func replayServe(it *serveItem, progs []*seedProgram, t *tracer, env *serveEnv) error {
	var err error
	t.begin("request")
	defer t.end()
	encode := func(v any) { t.do("daemon.encode", func() { encodeBody(v) }) }
	switch it.op {
	case opApply:
		var req rowsRequest
		t.do("daemon.decode", func() { err = decodeStrict(it.body, &req) })
		var res *progstore.ApplyResult
		t.do("progstore.apply", func() { res, err = env.reg.Apply(env.ids[it.prog], req.Rows, 0) })
		if err != nil {
			return err
		}
		encode(res)
	case opTransform:
		var req transformRequest
		t.do("daemon.decode", func() { err = decodeStrict(it.body, &req) })
		resp, err := transformReply(t, req.Rows, req.Target)
		if err != nil {
			return err
		}
		encode(resp)
	case opRegister:
		var req registerRequest
		t.do("daemon.decode", func() { err = decodeStrict(it.body, &req) })
		tr, err := synthesize(t, req.Rows, req.Target)
		if err != nil {
			return err
		}
		var raw []byte
		t.do("clx.export", func() { raw, err = tr.Export() })
		if err != nil {
			return err
		}
		var e progstore.Entry
		t.do("progstore.register", func() { e, err = env.reg.Register(raw, progstore.Meta{Name: req.Name, RowCount: len(req.Rows)}) })
		if err != nil {
			return err
		}
		t.do("fleet.ship", env.repl.Flush)
		ej := entryJSON(e)
		ej.Flagged = tr.Unmatched()
		encode(ej)
	}
	return nil
}
