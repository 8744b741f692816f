package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// namedMetrics are the end-to-end metrics each workload prints by name,
// unit and sample count in its human-readable lines.
var namedMetrics = map[string][]string{
	"tpch_scan":  {"setup_s s", "query_p50_s s", "query_p90_s s", "queries_per_s 1/s", "revealed_pairs_per_query pairs", "stored_bytes_per_row bytes", "server_peak_rss_bytes bytes", "error_rate ratio"},
	"tpch_chain": {"setup_s s", "query_p50_s s", "query_p90_s s", "queries_per_s 1/s", "revealed_pairs_per_query pairs", "stored_bytes_per_row bytes", "server_peak_rss_bytes bytes", "error_rate ratio"},
	"ingest":     {"setup_s s", "ingest_rows_per_s rows/s", "upload_p50_s s", "upload_p90_s s", "stored_bytes_per_row bytes", "server_peak_rss_bytes bytes", "error_rate ratio"},
}

type specMetric struct{ Name, Unit string }

// loadSpec reads the metric lists of BENCHMARK.json at the repository
// root.
func loadSpec(t *testing.T) (e2e, layers []specMetric) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sjserver")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/sjserver")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building sjserver: %v", err)
	}
	return bin
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each named metric is printed with its unit, that the JSON
// line carries exactly the metrics BENCHMARK.json lists, that the oracle
// passes, and that a second run of the same seed counts exactly the same.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts sjserver processes")
	}
	server := buildServer(t)
	e2e, layers := loadSpec(t)
	workdir := t.TempDir()
	for _, w := range []string{"tpch_scan", "tpch_chain", "ingest"} {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				cfg := config{workload: w, seed: 7, seconds: 2, trace: trace, serverBin: server, workdir: workdir, tiny: true}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
				}
				for _, m := range namedMetrics[w] {
					name, unit, _ := strings.Cut(m, " ")
					re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + ` n=\d+`)
					if !re.MatchString(out.String()) {
						t.Errorf("trace=%v: no line for %s in %s\n%s", trace, m, unit, out.String())
					}
				}
				want := e2e
				if trace {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics in the JSON line, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				if strings.Contains(out.String(), "counters: DIFFER") {
					t.Errorf("trace=%v: canonical counters changed between runs of one seed\n%s", trace, out.String())
				}
				if trace && !strings.Contains(out.String(), "counters: identical") {
					t.Errorf("second run of seed 7 did not compare its counters\n%s", out.String())
				}
			}
		})
	}
}
