package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"parafile/internal/meta"
	"parafile/internal/rpc"
)

// The fixed topology every workload runs against. These are constants
// of the benchmark, not flags: two runs are comparable only when they
// drove the same cluster.
const (
	dataDaemons  = 3
	metaDaemons  = 3
	replication  = 2
	stripeBytes  = 256 << 10
	qosInflight  = 32
	startTimeout = 15 * time.Second
	stopGrace    = 5 * time.Second
)

// binaries are the daemon executables built from the tree under test.
type binaries struct {
	parafiled, parafilemd string
}

// buildDaemons compiles cmd/parafiled and cmd/parafilemd of the repo at
// root into root/.bench_build/bin. The go build cache makes repeat
// calls cheap.
func buildDaemons(root string) (binaries, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/parafiled", "./cmd/parafilemd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("building daemons in %s: %v\n%s", root, err, out)
	}
	return binaries{
		parafiled:  filepath.Join(bin, "parafiled"),
		parafilemd: filepath.Join(bin, "parafilemd"),
	}, nil
}

// proc is one daemon child process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string // bound protocol address, parsed from stderr
	metrics string // bound metrics address, parsed from stderr
	ready   chan struct{}
	exited  chan struct{} // closed once Wait returned

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
}

const tailLines = 30

var (
	listenRe  = regexp.MustCompile(`listening on (\S+)`)
	metricsRe = regexp.MustCompile(`serving metrics on http://([^/\s]+)/`)
)

// spawn runs f on a goroutine that stays locked to one OS thread for
// the life of the process. Children are started through it because the
// kernel delivers Pdeathsig when the thread that forked them exits, not
// the process: forking from a thread the Go runtime may retire would
// kill daemons mid-run.
var spawnCh = func() chan func() {
	ch := make(chan func())
	go func() {
		runtime.LockOSThread()
		for f := range ch {
			f()
		}
	}()
	return ch
}()

func spawn(f func() error) error {
	done := make(chan error, 1)
	spawnCh <- func() { done <- f() }
	return <-done
}

// startProc launches bin with args in its own process group and scans
// its stderr for the bound addresses. onExit runs when the process ends.
func startProc(name, bin string, args []string, onExit func(*proc, error)) (*proc, error) {
	p := &proc{name: name, ready: make(chan struct{}), exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	// Own process group: a terminal's ^C reaches only the harness, which
	// drains the daemons in order. Pdeathsig covers the exits that run no
	// defers (SIGKILL of the harness, a panic on another goroutine).
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := spawn(p.cmd.Start); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.scan(stderr)
		err := p.cmd.Wait()
		close(p.exited)
		onExit(p, err)
	}()
	return p, nil
}

// scan consumes the child's stderr until EOF, extracting the bound
// addresses (every daemon was started with -metrics-addr, so ready
// means both lines were seen) and keeping the last lines.
func (p *proc) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > tailLines {
			p.tail = p.tail[1:]
		}
		if m := listenRe.FindStringSubmatch(line); m != nil && p.addr == "" {
			p.addr = m[1]
		}
		if m := metricsRe.FindStringSubmatch(line); m != nil && p.metrics == "" {
			p.metrics = m[1]
		}
		done := p.addr != "" && p.metrics != ""
		p.mu.Unlock()
		if done && !signalled {
			signalled = true
			close(p.ready)
		}
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop asks the daemon to drain (SIGTERM), escalating to SIGKILL of
// the process group after the grace period, and waits until it ended.
func (p *proc) stop() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(stopGrace):
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.exited
	}
}

// topology is the running cluster: data daemons, the metadata group
// and (for the redistribute workload) one spare data daemon that is
// started but not registered.
type topology struct {
	dir   string
	bins  binaries
	data  []*proc
	md    []*proc
	spare *proc

	// ctx is cancelled, with the daemon's stderr tail as cause, when a
	// daemon dies while the topology is up.
	ctx      context.Context
	cancel   context.CancelCauseFunc
	stopping sync.Once
	stopped  chan struct{}
}

// startTopology starts the fixed cluster under a fresh directory in
// tmpRoot, waits for a metadata leaseholder and registers the data
// daemons. withSpare additionally starts the unregistered 4th daemon.
func startTopology(parent context.Context, bins binaries, tmpRoot string, withSpare bool) (*topology, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	// A port reserved for the -peers list can be taken (by any outbound
	// connection on the box) before its daemon binds it; start over then.
	for attempt := 1; ; attempt++ {
		t := &topology{dir: dir, bins: bins, stopped: make(chan struct{})}
		t.ctx, t.cancel = context.WithCancelCause(parent)
		err := t.start(withSpare)
		if err == nil {
			return t, nil
		}
		t.stop()
		if attempt == 3 || !strings.Contains(err.Error(), "address already in use") {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
}

func (t *topology) onExit(p *proc, err error) {
	select {
	case <-t.stopped:
		return // orderly shutdown
	default:
	}
	t.cancel(fmt.Errorf("%s exited mid-run (%v); stderr tail:\n%s", p.name, err, p.stderrTail()))
}

func (t *topology) start(withSpare bool) error {
	// The -peers list must name every member before any starts, so the
	// group's ports are reserved up front and released just before use.
	peers, err := freeAddrs(metaDaemons)
	if err != nil {
		return err
	}
	for i, addr := range peers {
		p, err := startProc(fmt.Sprintf("parafilemd[%d]", i), t.bins.parafilemd, []string{
			"-listen", addr,
			"-peers", strings.Join(peers, ","),
			"-data-dir", filepath.Join(t.dir, fmt.Sprintf("md%d", i)),
			"-metrics-addr", "127.0.0.1:0",
		}, t.onExit)
		if err != nil {
			return err
		}
		t.md = append(t.md, p)
	}
	n := dataDaemons
	if withSpare {
		n++
	}
	for i := 0; i < n; i++ {
		p, err := startProc(fmt.Sprintf("parafiled[%d]", i), t.bins.parafiled, []string{
			"-listen", "127.0.0.1:0",
			"-data-dir", t.dataDir(i),
			"-qos", "-qos-inflight", fmt.Sprint(qosInflight),
			"-metrics-addr", "127.0.0.1:0",
		}, t.onExit)
		if err != nil {
			return err
		}
		if i < dataDaemons {
			t.data = append(t.data, p)
		} else {
			t.spare = p
		}
	}
	deadline := time.After(startTimeout)
	for _, p := range t.procs() {
		select {
		case <-p.ready:
		case <-t.ctx.Done():
			return context.Cause(t.ctx)
		case <-deadline:
			return fmt.Errorf("%s did not report its addresses within %v; stderr tail:\n%s",
				p.name, startTimeout, p.stderrTail())
		}
	}
	if err := t.waitLeader(); err != nil {
		return err
	}
	fs := meta.Dial(t.metaAddr(), meta.Options{})
	defer fs.Close()
	for _, p := range t.data {
		if _, err := fs.SetNode(t.ctx, p.addr, rpc.NodeActive); err != nil {
			return fmt.Errorf("registering %s: %w", p.addr, err)
		}
	}
	return nil
}

// freeAddrs reserves n distinct loopback ports and releases them.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// waitLeader polls MetaStatus until one member holds a live lease.
func (t *topology) waitLeader() error {
	deadline := time.Now().Add(startTimeout)
	for {
		for _, p := range t.md {
			cl := rpc.NewClient(rpc.ClientConfig{Addr: p.addr, MaxRetries: -1})
			st, err := cl.MetaStatus(t.ctx)
			cl.Close()
			if err == nil && st.Role == rpc.RoleLeader && st.LeaseMs > 0 {
				return nil
			}
		}
		if err := t.ctx.Err(); err != nil {
			return context.Cause(t.ctx)
		}
		if time.Now().After(deadline) {
			return errors.New("no metadata leaseholder within " + startTimeout.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// dataDir is where data daemon i keeps its subfiles.
func (t *topology) dataDir(i int) string { return filepath.Join(t.dir, fmt.Sprintf("d%d", i)) }

// metaAddr is the endpoint list meta.Dial takes.
func (t *topology) metaAddr() string {
	addrs := make([]string, len(t.md))
	for i, p := range t.md {
		addrs[i] = p.addr
	}
	return strings.Join(addrs, ",")
}

// dataAddrs are the registered data daemons' protocol addresses.
func (t *topology) dataAddrs() []string {
	addrs := make([]string, len(t.data))
	for i, p := range t.data {
		addrs[i] = p.addr
	}
	return addrs
}

// procs lists every child, spare included.
func (t *topology) procs() []*proc {
	all := append(append([]*proc(nil), t.data...), t.md...)
	if t.spare != nil {
		all = append(all, t.spare)
	}
	return all
}

// stop drains and reaps every daemon, then removes the data
// directories. Idempotent.
func (t *topology) stop() {
	t.stopping.Do(func() {
		close(t.stopped)
		var wg sync.WaitGroup
		for _, p := range t.procs() {
			wg.Add(1)
			go func(p *proc) {
				defer wg.Done()
				p.stop()
			}(p)
		}
		wg.Wait()
		t.cancel(errors.New("topology stopped"))
		os.RemoveAll(t.dir)
	})
}
