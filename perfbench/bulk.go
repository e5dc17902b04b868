package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	clx "clx"
	"clx/internal/dataset"
	"clx/internal/stream"
)

// The bulk workload: the committed program at scale, ~1M-row NDJSON
// bodies through POST /v1/programs/{id}/apply/stream on one node.

const (
	bulkRows     = 1 << 20
	tinyBulkRows = 20000
	// noiseEvery is the mean spacing of rows that match no source: the
	// flagged rows of the bulk workload.
	noiseEvery = 200
	// trailerCap mirrors the daemon's cap on flagged indices per trailer.
	trailerCap = 10000
)

var noiseRows = []string{"N/A", "unknown", "call front desk", "tbd"}

// seedProgram is a program the workload registers during set-up.
type seedProgram struct {
	name, target string
	rows         []string
	repairs      []repairJSON
	body         []byte // POST /v1/programs request
	exp          programEntryJSON
	raw          []byte // the exported program the node must hold
	id           string // the id the node mints: the next after the template's
}

// seedPrograms builds the two programs bulk and serve register: 6-format
// phones and DD/MM/YYYY dates, the dates one repaired to the ranked
// alternative that yields MM-DD-YYYY (what an analyst would pick).
func seedPrograms(seed int64) ([]*seedProgram, error) {
	phones, _ := dataset.Phones(2000, 6, seed)
	dates, want := dataset.Dates(2000, seed+1)
	ps := []*seedProgram{
		{name: "phones", target: "<D>3'-'<D>3'-'<D>4", rows: phones},
		{name: "dates", target: "<D>2'-'<D>2'-'<D>4", rows: dates},
	}
	for _, p := range ps {
		tr, err := clx.NewSession(p.rows).Label(clx.MustParsePattern(p.target))
		if err != nil {
			return nil, err
		}
		if p.name == "dates" {
			for j := range tr.Alternatives(0) {
				if err := tr.Repair(0, j); err != nil {
					return nil, err
				}
				if out, _ := tr.Apply(p.rows[0]); out == want[0] {
					p.repairs = []repairJSON{{Source: 0, Alt: j}}
					break
				}
			}
		}
		raw, err := tr.Export()
		if err != nil {
			return nil, err
		}
		var c bytes.Buffer
		if err := json.Compact(&c, raw); err != nil {
			return nil, err
		}
		p.raw = c.Bytes()
		sp, err := clx.LoadProgram(raw)
		if err != nil {
			return nil, err
		}
		p.exp = programEntryJSON{Version: 1, Name: p.name, Target: sp.Target().String(), RowCount: len(p.rows),
			Repairs: p.repairs, Program: p.raw, Flagged: tr.Unmatched()}
		for _, s := range sp.Sources() {
			p.exp.Sources = append(p.exp.Sources, s.String())
		}
		p.body = encodeBody(registerRequest{Rows: p.rows, Target: p.target, Repairs: p.repairs, Name: p.name})
	}
	for i, p := range ps {
		p.id = fmt.Sprintf("p%06d", templatePrograms+1+i)
	}
	return ps, nil
}

// register sends the program's registration and checks the reply.
func (p *seedProgram) register(hc *http.Client, base string) error {
	b, err := expectStatus(hc, "POST", base+"/v1/programs", p.body, http.StatusCreated)
	if err != nil {
		return err
	}
	if err := sameEntry("register "+p.name, b, p.exp); err != nil {
		return err
	}
	var e programEntryJSON
	if err := json.Unmarshal(b, &e); err != nil {
		return err
	}
	if e.ID != p.id {
		return fmt.Errorf("register %s: minted id %s, want %s", p.name, e.ID, p.id)
	}
	return nil
}

// bulkBody is one stream request and the oracle's expected frames.
type bulkBody struct {
	prog     int
	n        int // rows in the body
	body     []byte
	hash     uint64 // FNV-1a over every data frame, newline included
	outBytes int    // bytes of every data frame
	flagged  int
	firstFlg []int
}

// bulkBodies generates one body per seed program, rows matching no
// source at a fixed mean rate, and computes the oracle's frames for each
// with the library path: SavedProgram.Transform over the rows, encoded
// as NDJSON strings. The rows themselves are not kept: a million live
// strings would slow the benchmark process's own garbage collection.
func bulkBodies(seed int64, progs []*seedProgram, n int) ([]*bulkBody, error) {
	var out []*bulkBody
	for i := range progs {
		var rows []string
		if progs[i].name == "phones" {
			rows, _ = dataset.Phones(n, 6, seed+int64(10+i))
		} else {
			rows, _ = dataset.Dates(n, seed+int64(10+i))
		}
		r := rand.New(rand.NewSource(seed + int64(20+i)))
		for j := range rows {
			if r.Intn(noiseEvery) == 0 {
				rows[j] = noiseRows[r.Intn(len(noiseRows))]
			}
		}
		var enc stream.NDJSONEncoder
		body := make([]byte, 0, n*18)
		for _, s := range rows {
			body = enc.AppendValue(body, []byte(s))
		}
		b := &bulkBody{prog: i, n: n, body: body}
		if err := b.expectFrames(progs[i].raw, rows); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func (b *bulkBody) expectFrames(raw []byte, rows []string) error {
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		return err
	}
	out, flagged := sp.Transform(rows)
	h := fnv.New64a()
	var enc stream.NDJSONEncoder
	var buf []byte
	for _, s := range out {
		buf = enc.AppendValue(buf[:0], []byte(s))
		h.Write(buf)
		b.outBytes += len(buf)
	}
	b.hash = h.Sum64()
	b.flagged = len(flagged)
	if len(flagged) > trailerCap {
		flagged = flagged[:trailerCap]
	}
	b.firstFlg = flagged
	return nil
}

// streamSample is one stream request's timings over HTTP.
type streamSample struct {
	total, first time.Duration
	server       time.Duration // the stream's own run time, from its trailer
	rows         int
	body         int // index of the body sent
}

// runStreamHTTP sends one body and checks the frames against the oracle.
func runStreamHTTP(hc *http.Client, url string, b *bulkBody) (streamSample, error) {
	var smp streamSample
	req, err := http.NewRequest("POST", url+"?input=ndjson", bytes.NewReader(b.body))
	if err != nil {
		return smp, err
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return smp, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return smp, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	h := fnv.New64a()
	var trailer *streamTrailer
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return smp, fmt.Errorf("stream: frame longer than 64KiB")
		}
		if err != nil {
			return smp, fmt.Errorf("stream ended without its done trailer after %d rows: %v", smp.rows, err)
		}
		if smp.rows == 0 && smp.first == 0 {
			smp.first = time.Since(t0)
		}
		if line[0] == '{' {
			trailer = &streamTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return smp, err
			}
			break
		}
		h.Write(line)
		smp.rows++
	}
	smp.total = time.Since(t0)
	if trailer.RowsPerSec > 0 {
		smp.server = time.Duration(float64(trailer.Rows) / trailer.RowsPerSec * float64(time.Second))
	}
	switch {
	case !trailer.Done:
		return smp, fmt.Errorf("stream trailer: done=false: %s", trailer.Error)
	case h.Sum64() != b.hash || smp.rows != b.n || trailer.Rows != int64(b.n):
		return smp, fmt.Errorf("stream frames differ from the library-path oracle (%d rows)", smp.rows)
	case trailer.Flagged != int64(b.flagged) || fmt.Sprint(trailer.FlaggedRows) != fmt.Sprint(b.firstFlg):
		return smp, fmt.Errorf("stream trailer flags %d rows, oracle %d", trailer.Flagged, b.flagged)
	}
	return smp, nil
}

// bulkResult collects the HTTP phase of the bulk workload.
type bulkResult struct {
	samples  []streamSample
	failed   int
	attempts int
	errs     []string
}

// runBulk streams the bodies in turn from one closed-loop client until
// the deadline (or, with limit > 0, for limit requests).
func runBulk(base string, progs []*seedProgram, bodies []*bulkBody, dur time.Duration, limit int) bulkResult {
	var res bulkResult
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		if (limit > 0 && i >= limit) || (limit <= 0 && time.Now().After(deadline)) {
			break
		}
		b := bodies[i%len(bodies)]
		res.attempts++
		smp, err := runStreamHTTP(hc, base+"/v1/programs/"+progs[b.prog].id+"/apply/stream", b)
		smp.body = i % len(bodies)
		if err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, err.Error())
			}
			continue
		}
		res.samples = append(res.samples, smp)
	}
	return res
}

// bulkReplay is what the traced replay of one stream observed.
type bulkReplay struct {
	rows, mallocs int64
	peakInFlight  int
	streamRun     time.Duration
	autoApply     time.Duration
}

// replayStream runs one stream request through the layers' exported
// functions as the daemon's stream handler does — registry load, then
// stream.Run with the NDJSON reader and encoder — and, as probes, each
// stage of the pipeline on its own: NDJSON decoding, the automaton over
// every row, and NDJSON encoding.
func replayStream(b *bulkBody, id string, t *tracer, env *replayEnv) (bulkReplay, error) {
	var rep bulkReplay
	t.begin("stream")
	var sp *clx.SavedProgram
	var err error
	t.do("progstore.load", func() { sp, _, err = env.reg.Load(id) })
	if err != nil {
		return rep, err
	}
	var flagged []int
	var st stream.Stats
	var ms0, ms1 runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&ms0)
	}
	h := fnv.New64a() // stands in for the network: the client hashes what it reads
	t0 := time.Now()
	t.do("stream.run", func() {
		st, err = stream.Run(sp, stream.NewNDJSONReader(bytes.NewReader(b.body)), stream.NDJSONEncoder{}, h, stream.Options{
			OnFlagged: func(row int) {
				if len(flagged) < trailerCap {
					flagged = append(flagged, row)
				}
			},
		})
	})
	rep.streamRun = time.Since(t0)
	if t != nil {
		runtime.ReadMemStats(&ms1)
		rep.mallocs = int64(ms1.Mallocs - ms0.Mallocs)
	}
	if err != nil {
		return rep, err
	}
	if h.Sum64() != b.hash || st.Flagged != int64(b.flagged) {
		return rep, fmt.Errorf("replayed stream differs from the oracle")
	}
	rep.rows, rep.peakInFlight = st.Rows, st.PeakInFlight
	t.do("daemon.encode", func() {
		encodeBody(streamTrailer{Done: true, Rows: st.Rows, Flagged: st.Flagged, FlaggedRows: flagged})
	})
	t.end()
	if t == nil {
		return rep, nil
	}
	t.probing(func() {
		var chunks [][]string
		t.do("daemon.decode", func() {
			rd := stream.NewNDJSONReader(bytes.NewReader(b.body))
			for {
				rows, err := rd.Next(stream.DefaultChunkSize)
				if len(rows) == 0 || err != nil {
					return
				}
				chunks = append(chunks, rows)
			}
		})
		out := make([][]byte, 0, b.n)
		t0 := time.Now()
		t.do("automaton.apply", func() {
			apply, release := sp.ChunkApplier()
			var arena []byte
			for _, rows := range chunks {
				for _, s := range rows {
					n := len(arena)
					arena, _ = apply(arena, s)
					out = append(out, arena[n:len(arena):len(arena)])
				}
			}
			release()
		})
		rep.autoApply = time.Since(t0)
		t.do("stream.encode", func() {
			var enc stream.NDJSONEncoder
			var buf []byte
			for _, v := range out {
				buf = enc.AppendValue(buf[:0], v)
			}
		})
	})
	return rep, nil
}
