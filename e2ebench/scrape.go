package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Exposition is one scrape of a /metrics endpoint in the Prometheus text
// format that internal/metrics writes: series name (labels included, as
// written) to value.
type Exposition map[string]float64

// parseExposition reads the text format: "# ..." lines are comments, every
// other non-blank line is "<series> <value>".
func parseExposition(r io.Reader) (Exposition, error) {
	out := Exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses url/metrics.
func scrape(ctx context.Context, client *http.Client, url string) (Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// delta returns after minus before for every series of after. Counters and
// histogram _sum/_count series become the work done in between; gauges
// keep their "after" value, since a difference of levels means nothing.
func delta(before, after Exposition) Exposition {
	gauges := map[string]bool{}
	for name := range after {
		if isGaugeName(name) {
			gauges[name] = true
		}
	}
	out := Exposition{}
	for name, v := range after {
		if gauges[name] {
			out[name] = v
			continue
		}
		out[name] = v - before[name]
	}
	return out
}

// isGaugeName recognises the level series among the program's metrics by
// the naming convention internal/metrics documents: counters end in
// _total, histograms expose _bucket/_sum/_count, everything else is a
// gauge.
func isGaugeName(name string) bool {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		if strings.HasSuffix(base, suf) {
			return false
		}
	}
	return true
}

// sumSeries adds the named series across expositions (several nodes).
func sumSeries(name string, xs ...Exposition) float64 {
	var s float64
	for _, x := range xs {
		s += x[name]
	}
	return s
}

// histMean returns the mean observation in seconds of histogram name
// across expositions, from the _sum and _count series, and the count.
func histMean(name string, xs ...Exposition) (mean, count float64) {
	sum := sumSeries(name+"_sum", xs...)
	count = sumSeries(name+"_count", xs...)
	return ratio(sum, count), count
}

// vmHWM returns a process's peak resident set size in bytes from
// /proc/<pid>/status.
func vmHWM(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := strings.Fields(string(line[len("VmHWM:"):]))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("pid %d: unexpected VmHWM line %q", pid, line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
