package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs. It refuses a
// percentile with fewer than ten samples beyond it: such a tail is one or
// two samples wide and moves from run to run by whole samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := max(int(math.Ceil(float64(n)*p/100))-1, 0)
	if n == 0 || n-1-rank < 10 {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need 10", p, n, n-1-rank)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// sentinel times a fixed CPU-and-memory loop, a seeded sort of 2M ints, in
// milliseconds. No change to the repository can move it; a slow set of
// runs whose sentinel is slow too was slowed by the host.
func sentinel(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int, 2<<20)
	for i := range xs {
		xs[i] = rng.Int()
	}
	start := time.Now()
	sort.Ints(xs)
	return ms(time.Since(start))
}

// treeHash hashes the repository's Go sources and module files under root,
// skipping the benchmark's own directory and build outputs, so a result
// names the code it measured even without git metadata.
func treeHash(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
