package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// catalog, so every run prints exactly the metrics it declares, with
// their units, and compare knows each metric's direction and bound.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run measured: every metric it computed,
// the sample count behind each where it has one, and its operation tally.
type report struct {
	attempted, failed int
	problems          []string // what failed; any makes the run invalid
	notes             []string // extra readable lines, printed before the table
	values            map[string]float64
	samples           map[string]int
	labels            map[string]string // e.g. which percentile a tail is
	digest            string            // hash of every request's result; see setDigest
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// digestMark starts the output line that carries a run's digest.
const digestMark = "# digest "

// setDigest hashes the digest of every request the run compiled, in key
// order. Mapper seeds are fixed and the work of a run depends only on its
// length, so every run of a workload at a given length, whatever its
// seed, must print the same hash; compare checks that across runs.
func (r *report) setDigest(perRequest map[string]string) {
	keys := make([]string, 0, len(perRequest))
	for k := range perRequest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, perRequest[k])
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, labels: map[string]string{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

// setTail sets name to the mean of the samples of xs beyond the highest
// percentile that has ten samples beyond it, or marks the run invalid
// when they are too few.
func (r *report) setTail(name string, xs []float64) {
	if v, p, err := tailMean(xs); err != nil {
		r.invalid("%s: %v", name, err)
	} else {
		r.set(name, v, len(xs))
		r.labels[name] = fmt.Sprintf("mean beyond p%g", p*100)
	}
}

// calibrated returns the factor that scales this run's times to the
// baseline machine's speed, and notes it.
func (r *report) calibrated(refMS []float64) float64 {
	s := speedScale(refMS)
	r.note("times are scaled by %.4f: the reference task took %.3f ms here, %.1f ms at baseline",
		s, median(refMS), refNominalMS)
	return s
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.invalid(format, args...)
}

// invalid records a problem with the run as a whole, such as a
// percentile without enough samples beyond it.
func (r *report) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// emit prints the catalog's metrics as a readable table and then the
// result line. It is an error for the run to lack a declared metric.
func (r *report) emit(w io.Writer, catalog []specMetric) error {
	res := result{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(catalog)),
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if r.digest != "" {
		fmt.Fprintln(w, digestMark+r.digest)
	}
	var missing []string
	for _, m := range catalog {
		v, ok := r.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		n := ""
		if c := r.samples[m.Name]; c > 0 {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %s %s\n", m.Name, v, m.Unit, n, r.labels[m.Name])
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("run did not measure %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("run attempted no operation")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
