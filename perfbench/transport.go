package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"
)

// The traced run's transport layer: what loopback HTTP and net/http on
// both ends cost a unit of work, measured by sending the unit's own
// request bodies to an in-process echo server that answers each with a
// reply of the size the node sent. The reconciliation subtracts it from
// the end-to-end time alongside the layers' self time.

// message is one HTTP exchange of a unit of work, by size.
type message struct {
	method string
	body   []byte // request body; nil for GET and DELETE
	reply  int    // response body bytes
	stream bool   // the reply flows while the body is still being read
}

// sessionMessages are the exchanges of one interactive session, in order.
func sessionMessages(s *sessionSpec) []message {
	e := s.exp
	m := []message{
		{"POST", s.createBody, len(encodeBody(e.created)), false},
		{"GET", nil, len(e.clusters), false},
		{"POST", s.appendBody, len(encodeBody(e.appended)), false},
		{"POST", s.labelBody, len(e.label), false},
	}
	if e.candidates != nil {
		m = append(m, message{"GET", nil, len(e.candidates), false})
	}
	if e.pick >= 0 {
		m = append(m, message{"POST", []byte(`{"source":0,"alt":` + strconv.Itoa(e.pick) + `}`), len(e.repaired), false})
	}
	return append(m,
		message{"POST", s.commitBody, len(encodeBody(e.commit)), false},
		message{"DELETE", nil, len(`{"deleted":"s-0000000000000000"}` + "\n"), false})
}

// serveMessage is the exchange of one serve request.
func serveMessage(it *serveItem) message {
	n := len(it.exp)
	if it.op == opRegister {
		n = len(encodeBody(it.ent))
	}
	return message{"POST", it.body, n, false}
}

// streamMessage is the exchange of one bulk stream: the NDJSON body up,
// the data frames and the trailer down, concurrently.
func streamMessage(b *bulkBody) message {
	trailer := encodeBody(streamTrailer{Done: true, Rows: int64(b.n), Flagged: int64(b.flagged), FlaggedRows: b.firstFlg, RowsPerSec: 1e6})
	return message{"POST", b.body, b.outBytes + len(trailer), true}
}

// echoFiller is the content of every echo reply: NDJSON-shaped lines, so
// a stream reply is read frame by frame as a real one is.
func echoFiller(n int) []byte {
	const line = `"734-645-8397"` + "\n"
	return bytes.Repeat([]byte(line), n/len(line)+1)[:n]
}

// echoHandler answers with ?reply bytes of filler. A buffered request is
// read whole before the reply is written, as the node's JSON handlers
// do; a ?stream request is answered in step with the body, full duplex,
// flushing after every read, as the node's stream handler does.
func echoHandler(filler []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("reply"))
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("stream") == "" {
			_, _ = io.Copy(io.Discard, r.Body)
			_, _ = w.Write(filler[:n])
			return
		}
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.Header().Set("Content-Type", "application/x-ndjson")
		buf := make([]byte, 64<<10)
		var read, sent int64
		for {
			k, err := r.Body.Read(buf)
			read += int64(k)
			if r.ContentLength > 0 {
				upto := int64(n) * read / r.ContentLength
				_, _ = w.Write(filler[sent:upto])
				sent = upto
				_ = rc.Flush()
			}
			if err != nil {
				break
			}
		}
		_, _ = w.Write(filler[sent:n])
	}
}

// exchange sends one message to the echo server and reads the reply the
// way the benchmark's clients read the node's.
func exchange(hc *http.Client, base string, m message) error {
	url := base + "/?reply=" + strconv.Itoa(m.reply)
	if !m.stream {
		code, b, err := call(hc, m.method, url, m.body)
		if err == nil && (code != http.StatusOK || len(b) != m.reply) {
			err = fmt.Errorf("echo: status %d, %d of %d bytes", code, len(b), m.reply)
		}
		return err
	}
	req, err := http.NewRequest(m.method, url+"&stream=1", bytes.NewReader(m.body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	got := 0
	for {
		line, err := br.ReadSlice('\n')
		got += len(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if got != m.reply {
		return fmt.Errorf("echo stream: %d of %d bytes", got, m.reply)
	}
	return nil
}

// echoServer times a unit's exchanges without the program behind them.
type echoServer struct {
	srv *httptest.Server
	hc  *http.Client
}

// newEchoServer starts an echo server whose replies can be as long as
// the longest in units.
func newEchoServer(units map[int][]message) *echoServer {
	most := 0
	for _, ms := range units {
		for _, m := range ms {
			most = max(most, m.reply)
		}
	}
	return &echoServer{srv: httptest.NewServer(echoHandler(echoFiller(most))), hc: newHTTPClient()}
}

// time sends the messages in order and returns how long they took.
func (e *echoServer) time(ms []message) (time.Duration, error) {
	t0 := time.Now()
	for _, m := range ms {
		if err := exchange(e.hc, e.srv.URL, m); err != nil {
			return 0, fmt.Errorf("transport %s: %w", strings.ToLower(m.method), err)
		}
	}
	return time.Since(t0), nil
}

func (e *echoServer) close() {
	e.hc.CloseIdleConnections()
	e.srv.Close()
}
