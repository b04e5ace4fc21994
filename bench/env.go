package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envStamp is printed at the top of every output and trace, so numbers
// from different hosts are not compared by accident.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Transport  string `json:"transport"`
}

func stampEnv(cfg runConfig) envStamp {
	e := envStamp{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Seed:       cfg.seed,
		// daemon_wire never leaves the host: no link rate or wire latency
		// is measured.
		Transport: "loopback TCP",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Outside a git checkout (the benchmark driver's copy) there is no
	// commit to name.
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func (e envStamp) line() string {
	return fmt.Sprintf("# cpu %q, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, daemon transport %s",
		e.CPU, e.NProc, e.GOMAXPROCS, e.Go, e.Commit, e.Seed, e.Transport)
}

// peakRSSMiB is the high-water mark of a process's resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds is the user+system CPU time a process has used so far, from
// /proc/PID/stat in USER_HZ ticks (100 per second on Linux).
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the parenthesis that closes it.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU times in /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}
