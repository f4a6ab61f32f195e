package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// buildBinaries builds provmind and provrouter from the checkout at root
// into a directory under out named after a hash of the module's sources,
// so repeated runs on one checkout reuse the binaries and any source change
// rebuilds them.
func buildBinaries(root, out string) (string, error) {
	sum, err := sourceHash(root, out)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(out, "bin-"+sum)
	if fileExists(filepath.Join(dir, "provmind")) && fileExists(filepath.Join(dir, "provrouter")) {
		return dir, nil
	}
	tmp, err := os.MkdirTemp(out, "build-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	for _, name := range []string{"provmind", "provrouter"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(tmp, name), "./cmd/"+name)
		cmd.Dir = root
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("build %s: %w", name, err)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// sourceHash hashes every Go source and module file of the repository,
// skipping hidden directories, the build output and the benchmark itself.
func sourceHash(root, out string) (string, error) {
	h := sha256.New()
	absOut, _ := filepath.Abs(out)
	bench, _ := filepath.Abs(filepath.Join(root, "e2ebench"))
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == absOut || abs == bench) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}
