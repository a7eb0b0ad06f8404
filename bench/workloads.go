package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one traffic mix against one server. Every workload serves
// ItemCompare with k=3 and q=10 and runs without admission control or a
// per-worker limiter (the server defaults), so what is measured is the
// server's own speed, not a shedding policy.
type workload struct {
	name string
	why  string
	// strategy and fsync are the server's -strategy and -fsync flags.
	strategy string
	fsync    string
	// conns is how many keep-alive connections the workers' rounds use.
	conns int
	// roundRate > 0 makes the workload an open loop of Poisson worker
	// rounds at that rate per second; 0 makes it a closed loop.
	roundRate float64
}

// statusRate is the requester's status-poll rate, the same in every
// workload.
const statusRate = 20.0

var workloads = []workload{
	{
		name:     "adaptive",
		why:      "the paper's icrowd strategy on one closed-loop connection: scheme recompute, estimate and assign in core dominate each round; the store does almost nothing",
		strategy: "icrowd", fsync: "never", conns: 1,
	},
	{
		name:     "durable",
		why:      "cheap randommv strategy with fsync on every append, two closed-loop connections: store append+fsync, handler and HTTP dominate; predicted flat on a core change",
		strategy: "randommv", fsync: "always", conns: 2,
	},
	{
		name:     "open-arrivals",
		why:      "Poisson arrivals of 500 worker rounds/s plus 20 status polls/s on two connections: tail latency when arrivals queue, status reads contending with writes",
		strategy: "randommv", fsync: "never", conns: 2, roundRate: 500,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverArgs returns the flags of the server (or serve role) of w.
func (w workload) serverArgs(addr, dataDir string) []string {
	return []string{
		"-addr", addr, "-dataset", "ItemCompare", "-strategy", w.strategy,
		"-k", "3", "-q", "10", "-seed", "1",
		"-data-dir", dataDir, "-fsync", w.fsync,
	}
}

// server is the process one workload runs against.
type server struct {
	*proc
	// dataDir is its -data-dir directory.
	dataDir string
	// traceFile is where a traced server writes its spans on exit.
	traceFile string
}

// commandLine returns the process's exact command line, for the run
// metadata.
func (s *server) commandLine() string { return s.name + " " + strings.Join(s.args, " ") }

// launch starts w's server in dir — the shipped binary, or the benchmark's
// own serve role when traced — and returns once it answers /v1/readyz with
// 200, with the time that took.
func (b *bench) launch(ctx context.Context, w workload, traced bool, dir string) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{dataDir: filepath.Join(dir, "server-data")}
	args := w.serverArgs(addr, s.dataDir)
	bin := filepath.Join(b.binDir, "icrowd-server")
	if traced {
		s.traceFile = filepath.Join(dir, "server.spans")
		args = append([]string{"serve"}, append(args, "-trace-out", s.traceFile)...)
		bin = b.self
	}

	start := time.Now()
	s.proc, err = spawn("server", bin, args, addr, dir)
	if err != nil {
		return nil, 0, err
	}
	rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := waitReady(rctx, b.hc, s.proc); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop shuts the server down and waits for it to end.
func (s *server) stop() { s.proc.stop(5 * time.Second) }
