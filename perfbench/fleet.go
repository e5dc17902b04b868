package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one program process under test: a clxd node or a clxproxy.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc runs bin with args plus -addr on a fresh loopback port and
// waits until its /healthz answers.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			lf.Close()
			return nil, fmt.Errorf("%s exited during start-up (log %s)", name, logPath)
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not become healthy within 20s", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's resident-memory high-water mark.
func (p *proc) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop terminates the process and waits for it to exit: SIGTERM first
// (clxd folds its WAL on a clean shutdown), SIGKILL after 10s.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// fleet is the set of processes one workload runs against. front is the
// URL clients send to: the single node, or the proxy.
type testbed struct {
	procs []*proc
	nodes []*proc
	proxy *proc
	front string
}

// fleetSpec describes the processes to start.
type fleetSpec struct {
	bin      string // directory holding clxd and clxproxy
	dir      string // working directory for stores and logs
	template string // registry directory each node's store starts from
	nodes    int    // 1 = a single durable node; 2 = leader + follower behind a proxy
}

// startFleet starts the nodes (followers first, so the leader's first
// ship finds them up) and, for more than one node, the proxy.
func startFleet(fs fleetSpec) (*testbed, error) {
	f := &testbed{}
	fail := func(err error) (*testbed, error) { f.stop(); return nil, err }
	followers := make([]*proc, 0, fs.nodes-1)
	for i := 1; i < fs.nodes; i++ {
		p, err := startNode(fs, i, "")
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, p)
		followers = append(followers, p)
	}
	var urls []string
	for _, p := range followers {
		urls = append(urls, p.url)
	}
	leader, err := startNode(fs, 0, strings.Join(urls, ","))
	if err != nil {
		return fail(err)
	}
	f.procs = append(f.procs, leader)
	f.nodes = append([]*proc{leader}, followers...)
	f.front = leader.url
	if fs.nodes > 1 {
		var all []string
		for _, n := range f.nodes {
			all = append(all, n.url)
		}
		px, err := startProc("clxproxy", filepath.Join(fs.bin, "clxproxy"), filepath.Join(fs.dir, "proxy.log"),
			"-nodes", strings.Join(all, ","), "-policy", "round-robin")
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, px)
		f.proxy = px
		f.front = px.url
	}
	return f, nil
}

// startNode starts clxd number i on a fresh copy of the template store.
func startNode(fs fleetSpec, i int, followers string) (*proc, error) {
	store := filepath.Join(fs.dir, fmt.Sprintf("node%d", i))
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	if err := copyDir(fs.template, store); err != nil {
		return nil, err
	}
	args := []string{"-store", store}
	if followers != "" {
		args = append(args, "-followers", followers)
	}
	return startProc(fmt.Sprintf("clxd-%d", i), filepath.Join(fs.bin, "clxd"),
		filepath.Join(fs.dir, fmt.Sprintf("node%d.log", i)), args...)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB sums the processes' resident-memory high-water marks.
func (f *testbed) peakRSSMB() float64 {
	var s float64
	for _, p := range f.procs {
		s += p.peakRSSMB()
	}
	return s
}

func (f *testbed) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
	f.procs = nil
}

// nodeStats is the part of a node's GET /v1/stats the benchmark reads.
type nodeStats struct {
	MatcherCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"matcher_cache"`
	Streaming struct {
		Rows         int64 `json:"rows"`
		PeakInFlight int64 `json:"peak_in_flight"`
	} `json:"streaming"`
	Automaton struct {
		Compiled int64 `json:"compiled"`
		Fallback int64 `json:"fallback"`
	} `json:"automaton"`
	Admission struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	ProfileIndex struct {
		Profiles        int64 `json:"profiles"`
		ShardedProfiles int64 `json:"sharded_profiles"`
		RowsProfiled    int64 `json:"rows_profiled"`
		DistinctValues  int64 `json:"distinct_values"`
	} `json:"profile_index"`
	Sessions struct {
		Created  int64 `json:"created"`
		Rejected int64 `json:"rejected"`
	} `json:"sessions"`
	Replication struct {
		Leader *struct {
			Followers []struct {
				RecordsShipped  int64 `json:"records_shipped"`
				SnapshotsPushed int64 `json:"snapshots_pushed"`
				ShipErrors      int64 `json:"ship_errors"`
			} `json:"followers"`
		} `json:"leader"`
	} `json:"replication"`
}

// proxyStats is the part of GET /v1/proxy/stats the benchmark reads.
type proxyStats struct {
	Backends []struct {
		Picks int64 `json:"picks"`
	} `json:"backends"`
	Retries int64 `json:"retries"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(b, v)
}

// scrape reads /v1/stats from every node.
func (f *testbed) scrape() ([]nodeStats, error) {
	out := make([]nodeStats, len(f.nodes))
	for i, n := range f.nodes {
		if err := getJSON(n.url+"/v1/stats", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
