package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// spanDir is where a traced run writes its recorded spans, relative to
// the repository root (the directory the benchmark is run from).
const spanDir = ".bench_build/spans"

// repoRoot returns the directory holding the simulator's go.mod: the
// working directory when run from the repository root, its parent when
// the self-tests run from the benchmark's own directory.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module mmutricks\n") {
			return dir
		}
	}
	return "."
}

// provenance names what produced a result: the source revision, the Go
// toolchain, the host's CPUs, whether the PGO profile was applied, and
// the seed.
func provenance(seed int64) string {
	rev, dirty, pgo := "unknown", "", "off"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			case "-pgo":
				if s.Value != "" && s.Value != "off" {
					pgo = "on"
				}
			}
		}
	}
	return fmt.Sprintf("rev=%s tree=%s go=%s nproc=%d gomaxprocs=%d pgo=%s seed=%d",
		rev+dirty, treeDigest(repoRoot()), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), pgo, seed)
}

// treeDigest fingerprints the simulator's sources (go.mod, and every
// .go file and PGO profile under internal/ and cmd/). The benchmark
// often runs from a checkout that is not a git repository, where no
// revision is stamped into the binary; the digest still tells two
// source trees apart.
func treeDigest(root string) string {
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".pgo")) {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		rel, err := filepath.Rel(root, f)
		if err != nil {
			rel = f
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}
