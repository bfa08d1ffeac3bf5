package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process of the benchmark: a daemon under test, or a
// one-shot tool such as cobraindex.
type proc struct {
	cmd *exec.Cmd
	url string // base URL once the daemon printed its "listening on" line

	mu   sync.Mutex
	tail []string // last lines of stderr, for error reports
	done chan struct{}
}

// procSet owns every child the run starts, so that every exit path can kill
// and reap them all: a benchmark run must leave no daemon behind.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
	spent float64 // CPU ms of servers that have already exited
}

var listeningRE = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// startDaemon execs a daemon and waits for its "listening on http://…" line,
// which carries the port the kernel picked for -addr 127.0.0.1:0.
func (ps *procSet) startDaemon(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	// A daemon dies with the harness even if the harness is SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	ready := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := listeningRE.FindStringSubmatch(line); m != nil {
				select {
				case ready <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.url = <-ready:
		return p, nil
	case <-p.done:
		ps.kill(p)
		return nil, fmt.Errorf("%s exited before listening:\n%s", bin, p.stderrTail())
	case <-time.After(60 * time.Second):
		ps.kill(p)
		return nil, fmt.Errorf("%s did not listen within 60s:\n%s", bin, p.stderrTail())
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// runTool runs a one-shot child to completion.
func runTool(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w\n%s", bin, err, out.String())
	}
	return nil
}

// kill SIGKILLs a daemon and waits until it has ended. The CPU it used stays
// in the set's total, so CPU marks never run backwards across a restart.
func (ps *procSet) kill(p *proc) {
	_ = p.cmd.Process.Kill() // already exited: nothing to kill
	<-p.done                 // stderr drained; Wait may now close the pipe
	_ = p.cmd.Wait()         // reaps; the error is the kill signal itself
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.procs {
		if q == p {
			ps.procs = append(ps.procs[:i], ps.procs[i+1:]...)
			if st := p.cmd.ProcessState; st != nil {
				ps.spent += float64(st.UserTime()+st.SystemTime()) / float64(time.Millisecond)
			}
		}
	}
}

// killAll ends every live child.
func (ps *procSet) killAll() {
	for {
		ps.mu.Lock()
		if len(ps.procs) == 0 {
			ps.mu.Unlock()
			return
		}
		p := ps.procs[0]
		ps.mu.Unlock()
		ps.kill(p)
	}
}

// live is the number of running server processes.
func (ps *procSet) live() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.procs)
}

// cpuMs is the user+system CPU, in milliseconds, of every server process the
// set has run: the scheduler-insensitive cost of the work they did.
func (ps *procSet) cpuMs() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	total := ps.spent
	for _, p := range ps.procs {
		total += procCPUMs(p.cmd.Process.Pid)
	}
	return total
}

// rssMB sums the resident set (VmRSS) of the live server processes.
func (ps *procSet) rssMB() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	kb := 0.0
	for _, p := range ps.procs {
		kb += procStatusKB(p.cmd.Process.Pid, "VmRSS:")
	}
	return kb / 1024
}

// sampleRSS reads rssMB every rssEvery until stop is closed, and returns the
// readings.
func (ps *procSet) sampleRSS(stop <-chan struct{}) []float64 {
	var mb []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return mb
		case <-tick.C:
			mb = append(mb, ps.rssMB())
		}
	}
}

const rssEvery = 100 * time.Millisecond

// peakRSSMB sums the peak resident set (VmHWM) of the live server processes.
func (ps *procSet) peakRSSMB() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	kb := 0.0
	for _, p := range ps.procs {
		kb += procStatusKB(p.cmd.Process.Pid, "VmHWM:")
	}
	return kb / 1024
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPUMs reads utime+stime of a live process from /proc/<pid>/stat.
func procCPUMs(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0 // the process has just exited; kill() accounts for it
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, the 12th and 13th after the name.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 1000 / clockTick
}

// procStatusKB reads one "<key> <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb
			}
		}
	}
	return 0
}
