package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// record is the host and input record written with every result.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	LLC        string `json:"llc"`
	// Commit is the VCS revision the binary was built from; a checkout
	// without VCS metadata gets a digest of its Go sources instead.
	Commit string `json:"commit"`

	// TableBytes and BytesMovedComputed describe the workload's inputs;
	// the second is computed from table shapes and masks, not measured.
	TableBytes         int64 `json:"table_bytes"`
	BytesMovedComputed int64 `json:"bytes_moved_computed"`

	Tails        map[string]Tail `json:"tails,omitempty"`
	Steps        []stepResult    `json:"steps,omitempty"`
	GenLateP99MS float64         `json:"gen_late_p99_ms,omitempty"`
	Invalid      string          `json:"invalid,omitempty"`
	Mismatches   int             `json:"mismatches"`
	TracePath    string          `json:"trace_path,omitempty"`
	Result       *result         `json:"result,omitempty"`
}

func newRecord(workload string, seed int64, seconds int, trace bool) *record {
	l2, llc := caches()
	return &record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), L2: l2, LLC: llc, Commit: commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// caches reads cpu0's L2 and last-level cache sizes from sysfs.
func caches() (l2, llc string) {
	l2, llc = "unknown", "unknown"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	top := 0
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name)) // missing files leave "unknown"
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if typ == "Instruction" || size == "" || len(level) != 1 {
			continue
		}
		if level == "2" {
			l2 = size
		}
		if n := int(level[0] - '0'); n > top {
			top, llc = n, "L"+level+" "+size
		}
	}
	return l2, llc
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "source-sha256:" + sourceDigest(".")
}

// sourceDigest hashes the paths and contents of the Go sources and
// go.mod files under root, skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
