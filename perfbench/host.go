package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Host is the machine a result was measured on. Two results are
// comparable only when their hosts are equal: a figure from a 1-CPU
// container says nothing about a 2-CPU one.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

// Fingerprint is a Host plus the code that was measured. Commit is the
// VCS revision when the binary was built inside a git checkout;
// Source is a digest of the module's Go sources and go.mod, which names
// the code even where no VCS metadata exists.
type Fingerprint struct {
	Host   Host   `json:"host"`
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func thisHost() Host {
	return Host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
	}
}

// fingerprint describes this host and the module rooted at root.
func fingerprint(root string) Fingerprint {
	fp := Fingerprint{Host: thisHost(), Commit: "unknown", Source: sourceDigest(root)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			fp.Commit = rev + dirty
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden directories such as the build output), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Record is one benchmark run as written by -out: what ran, where, and
// what it measured.
type Record struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Result      Result      `json:"result"`
	// Detail holds the workload's own figures beyond the printed
	// metrics (per-path throughputs, tail percentiles, sample counts).
	Detail map[string]float64 `json:"detail"`
}

func readRecord(path string) (Record, error) {
	var r Record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// diffRecords renders cur against old metric by metric. It refuses when
// the two were measured on different hosts or are not the same
// workload and mode: such a difference would be host drift, not a
// change in the code.
func diffRecords(w io.Writer, old, cur Record) error {
	if old.Fingerprint.Host != cur.Fingerprint.Host {
		return fmt.Errorf("refusing to diff across hosts:\n  old %+v\n  new %+v",
			old.Fingerprint.Host, cur.Fingerprint.Host)
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace || old.Seconds != cur.Seconds {
		return fmt.Errorf("refusing to diff %s (trace=%v, %ds) against %s (trace=%v, %ds)",
			old.Workload, old.Trace, old.Seconds, cur.Workload, cur.Trace, cur.Seconds)
	}
	fmt.Fprintf(w, "%s: %s -> %s\n", cur.Workload, old.Fingerprint.Commit, cur.Fingerprint.Commit)
	for _, name := range sortedKeys(cur.Result.Metrics) {
		n := cur.Result.Metrics[name]
		o, ok := old.Result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s (new)\n", name, n.Value, n.Unit)
			continue
		}
		change := "n/a"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (n.Value/o.Value-1)*100)
		}
		fmt.Fprintf(w, "  %-32s %14.6g -> %-14.6g %-8s %s\n", name, o.Value, n.Value, n.Unit, change)
	}
	return nil
}
