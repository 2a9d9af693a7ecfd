package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envStamp records what a result was measured on: the machine's cores, the
// Go runtime settings, the source under test and the workload seed.
func envStamp(o *options) map[string]any {
	return map[string]any{
		"nproc":         o.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       o.nproc,
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit(o.root),
		"source_sha256": o.src,
		"seed":          o.seed,
		"scale":         o.scale.Name,
		"seconds":       o.seconds,
	}
}

// commit is the git commit of the source tree, or "none" in a checkout
// that is not a git repository. Only root's own .git is consulted, never a
// repository above it.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code under test when there is no commit to name.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if base := filepath.Base(path); !strings.HasSuffix(base, ".go") && base != "go.mod" && base != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
