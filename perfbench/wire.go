package main

import (
	"bytes"
	"encoding/json"
	"time"

	clx "clx"
	"clx/internal/replace"
)

// The clxd wire documents, declared field for field in the daemon's own
// order so the benchmark's library-path oracle encodes byte-identical
// response bodies. A drift between these and the daemon shows up as
// failed operations, never as silently skipped checks.

type clusterJSON struct {
	Pattern string `json:"pattern"`
	NL      string `json:"nl"`
	Count   int    `json:"count"`
	Sample  string `json:"sample"`
	Rows    []int  `json:"rows,omitempty"`
}

type clusterResponse struct {
	Clusters []clusterJSON   `json:"clusters"`
	Levels   [][]clusterJSON `json:"levels,omitempty"`
}

type repairJSON struct {
	Source int `json:"source"`
	Alt    int `json:"alt"`
}

type opJSON struct {
	NL           string        `json:"nl"`
	Regex        string        `json:"regex"`
	Replacement  string        `json:"replacement"`
	Source       string        `json:"source"`
	Preview      []previewJSON `json:"preview,omitempty"`
	Alternatives []string      `json:"alternatives,omitempty"`
}

type previewJSON struct {
	Input  string `json:"input"`
	Output string `json:"output"`
}

type transformRequest struct {
	Rows   []string `json:"rows"`
	Target string   `json:"target"`
}

type transformResponse struct {
	Ops     []opJSON        `json:"ops"`
	Output  []string        `json:"output"`
	Flagged []int           `json:"flagged,omitempty"`
	Clean   []int           `json:"clean,omitempty"`
	Program json.RawMessage `json:"program"`
}

type registerRequest struct {
	Rows    []string     `json:"rows"`
	Target  string       `json:"target"`
	Repairs []repairJSON `json:"repairs,omitempty"`
	Name    string       `json:"name,omitempty"`
}

type programEntryJSON struct {
	ID            string          `json:"id"`
	Version       int             `json:"version"`
	CreatedAtUnix int64           `json:"created_at_unix"`
	Name          string          `json:"name,omitempty"`
	Target        string          `json:"target"`
	Sources       []string        `json:"sources"`
	RowCount      int             `json:"row_count,omitempty"`
	Repairs       []repairJSON    `json:"repairs,omitempty"`
	Program       json.RawMessage `json:"program,omitempty"`
	Flagged       []int           `json:"flagged,omitempty"`
}

type rowsRequest struct {
	Rows []string `json:"rows"`
}

type sessionJSON struct {
	ID             string    `json:"id"`
	Rows           int       `json:"rows"`
	DistinctValues int       `json:"distinct_values"`
	LeafPatterns   int       `json:"leaf_patterns"`
	Levels         int       `json:"levels"`
	Generation     uint64    `json:"generation"`
	Labeled        bool      `json:"labeled"`
	Stale          bool      `json:"stale,omitempty"`
	Created        time.Time `json:"created"`
	LastUsed       time.Time `json:"last_used"`
}

type sessionAppendResponse struct {
	sessionJSON
	Appended int `json:"appended"`
}

type labelRequest struct {
	Target string `json:"target"`
}

type sessionSourceJSON struct {
	Index   int    `json:"index"`
	Pattern string `json:"pattern"`
	Plans   int    `json:"plans"`
}

type sessionLabelResponse struct {
	Ops        []opJSON            `json:"ops"`
	Sources    []sessionSourceJSON `json:"sources"`
	Flagged    []int               `json:"flagged,omitempty"`
	Clean      []int               `json:"clean,omitempty"`
	Generation uint64              `json:"generation"`
}

type repairCandidateJSON struct {
	Source       int     `json:"source"`
	Alt          int     `json:"alt"`
	NL           string  `json:"nl"`
	Regex        string  `json:"regex"`
	Replacement  string  `json:"replacement"`
	Residual     int     `json:"residual"`
	EditDistance int     `json:"edit_distance"`
	DL           float64 `json:"dl"`
	Score        float64 `json:"score"`
	Selected     bool    `json:"selected"`
}

type repairCandidatesResponse struct {
	Source     int                   `json:"source"`
	Candidates []repairCandidateJSON `json:"candidates"`
}

type commitRequest struct {
	Name string `json:"name,omitempty"`
}

// streamTrailer is the final NDJSON frame of a streaming apply.
type streamTrailer struct {
	Done             bool    `json:"done"`
	Error            string  `json:"error,omitempty"`
	Rows             int64   `json:"rows"`
	Flagged          int64   `json:"flagged"`
	FlaggedRows      []int   `json:"flagged_rows,omitempty"`
	FlaggedTruncated bool    `json:"flagged_truncated,omitempty"`
	RowsPerSec       float64 `json:"rows_per_sec"`
}

// encodeBody encodes v exactly as the daemon writes a JSON response.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // the wire types above always encode
	}
	return buf.Bytes()
}

func toClusterJSON(cs []clx.Cluster) []clusterJSON {
	out := make([]clusterJSON, 0, len(cs))
	for _, c := range cs {
		out = append(out, clusterJSON{
			Pattern: c.Pattern.String(), NL: c.Pattern.NLRegex(),
			Count: c.Count, Sample: c.Sample, Rows: c.Rows,
		})
	}
	return out
}

func toCandidatesJSON(cands []clx.RepairCandidate) []repairCandidateJSON {
	out := make([]repairCandidateJSON, 0, len(cands))
	for _, c := range cands {
		out = append(out, repairCandidateJSON{
			Source: c.Source, Alt: c.Alt, NL: c.Op.NLRegex(), Regex: c.Op.Regex(),
			Replacement: c.Op.Replacement, Residual: c.Residual, EditDistance: c.EditDistance,
			DL: c.DL, Score: c.Score, Selected: c.Selected,
		})
	}
	return out
}

// explainOps renders a transformation's Replace operations with their
// alternatives, as the label and transform responses carry them, and
// returns the ops for previewing.
func explainOps(tr *clx.Transformation) ([]opJSON, replace.Program) {
	prog := tr.Replaces()
	ops := make([]opJSON, 0, len(prog))
	for i, op := range prog {
		j := opJSON{NL: op.NLRegex(), Regex: op.Regex(), Replacement: op.Replacement, Source: op.Source.String()}
		for _, alt := range tr.Alternatives(i) {
			j.Alternatives = append(j.Alternatives, alt.Replacement)
		}
		ops = append(ops, j)
	}
	return ops, prog
}

// previewOps fills each op's before/after samples (3 per op, the
// daemon's default).
func previewOps(ops []opJSON, prog replace.Program, rows []string) {
	for i, op := range prog {
		for _, p := range op.Preview(rows, 3) {
			ops[i].Preview = append(ops[i].Preview, previewJSON{Input: p.Input, Output: p.Output})
		}
	}
}
