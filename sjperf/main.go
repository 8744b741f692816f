// Command sjperf is the repository benchmark. It starts the real
// sjserver binary as a child process with deployment flags only, drives
// it through the public client and SQL paths in a closed loop, checks
// every result against a plaintext reference, and prints each metric by
// name with its unit and sample count. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Workloads:
//
//	tpch_scan   Customers JOIN Orders, no SSE index: every query runs
//	            SJ.Dec over every row (1 connection).
//	tpch_chain  indexed Orders JOIN Customers JOIN Profiles with a
//	            selective class on every table: SSE prefilter plus
//	            semi-join, so per-query fixed costs dominate (2
//	            connections).
//	ingest      encrypt + UploadIndexed of fresh Orders batches into a
//	            rotating set of durable tables (1 connection).
//
// With -trace 1 the timed phase alternates blocks of untraced
// operations with blocks run through counting proxies with spans
// recorded around every layer call, and is followed by isolated replays
// of the pairing, scheme, index, store and engine-step layers. It
// reports the per-layer metrics and the tracing overhead (traced minus
// untraced op latency), and writes the spans as JSON lines under the
// work directory.
//
// Usually run through run.sh, which builds sjserver and this command
// from the checkout first:
//
//	bash sjperf/run.sh --workload tpch_scan --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workdir   string
	tiny      bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "tpch_scan", "workload: tpch_scan, tpch_chain or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds of closed-loop operations")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "path of the sjserver binary to start")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for server data, counters, results and spans")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.serverBin == "" {
		fmt.Fprintln(os.Stderr, "sjperf: -server is required")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "sjperf: results disagree with the plaintext reference")
		os.Exit(1)
	}
}

// printer writes the human-readable metric lines.
type printer struct{ w io.Writer }

func (p printer) metric(name string, v float64, unit string, n int, extra string) {
	fmt.Fprintf(p.w, "metric %-26s %.6g %s n=%d%s\n", name, v, unit, n, extra)
}

func run(cfg config, out io.Writer) (*result, error) {
	runDir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	b := &bench{cfg: cfg, runDir: runDir, classSigma: map[int]int{}}
	defer b.teardown()
	var setupS sample
	var spent float64
	for rep := 0; ; rep++ {
		s, err := b.setup(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s)
		spent += s
		if rep+1 >= maxSetupReps || (rep+1 >= minSetupReps && spent >= setupBudget.Seconds()) {
			break
		}
		dir := b.srv.dataDir
		b.teardown()
		os.RemoveAll(dir)
	}
	h := describeHost(b.srv.args)
	fmt.Fprintln(out, h)
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	// The canonical pass runs before the timed phase: it warms the
	// server up, and stored bytes are taken after a fixed amount of work,
	// so they do not grow with how many operations the timed phase fit.
	cnt, err := b.countPass()
	if err != nil {
		return nil, err
	}
	cj, _ := json.Marshal(cnt)
	fmt.Fprintf(out, "counters %s\n", cj)
	if err := compareCounters(out, cfg, cnt); err != nil {
		return nil, err
	}

	// Timed phase. A traced run interleaves traced and untraced
	// operations, for the overhead comparison.
	var recs []opRecord
	var wall float64
	var tr *tracer
	var before, after metricsSnap
	cpu0 := readCPU()
	if !cfg.trace {
		if before, err = b.srv.scrape(); err != nil {
			return nil, err
		}
		var minOps int64
		if b.w.batchRows == 0 && !cfg.tiny {
			minOps = minQueries
		}
		recs, wall = b.loop(cfg.seconds, minOps, nil, nil, nil)
	} else {
		cs, ps, err := b.dialProxied(b.w.conns)
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		if before, err = b.srv.scrape(); err != nil {
			return nil, err
		}
		recs, wall = b.loop(cfg.seconds, 0, tr, cs, ps)
		for _, c := range cs {
			c.Close()
		}
		for _, p := range ps {
			p.close()
		}
	}
	if after, err = b.srv.scrape(); err != nil {
		return nil, err
	}
	h.CPUShares = readCPU().sharesSince(cpu0)
	fmt.Fprintf(out, "host cpu during the timed phase: %s\n", h.CPUShares)

	res := &result{Metrics: map[string]metric{}}
	p := printer{out}
	e2e, err := b.endToEnd(p, recs, wall, setupS, cnt, after[mShed]-before[mShed])
	if err != nil {
		return nil, err
	}
	res.Attempted = len(recs)
	for _, r := range recs {
		if r.failed {
			res.Failed++
		}
	}

	layers := map[string]float64{}
	if cfg.trace {
		if err := b.traceLayers(p, layers, tr, recs, before, after); err != nil {
			return nil, err
		}
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metric{Value: layers[lm.name], Unit: lm.unit}
		}
	} else {
		res.Metrics = e2e
	}
	res.Correct = b.mismatches.Load() == 0
	if err := writeResults(cfg, h, res, cnt, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd prints the end-to-end metrics of the workload under their query or upload names,
// and returns the workload-independent set the JSON line carries: op
// latency and rate, where an op is a query on the query workloads and
// an upload batch on ingest.
func (b *bench) endToEnd(p printer, recs []opRecord, wall float64, setupS sample, cnt counters, shed float64) (map[string]metric, error) {
	var lat sample
	failed, rows := 0, 0
	for _, r := range recs {
		if r.failed {
			failed++
			continue
		}
		lat = append(lat, r.latency)
		rows += r.rows
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation completed in %gs", wall)
	}
	p50, _ := lat.percentile(50)
	p90, beyond := lat.percentile(90)
	opsPerS := float64(len(lat)) / wall

	rss, err := b.srv.peakRSS()
	if err != nil {
		return nil, err
	}
	errRate := float64(failed) / float64(len(recs))
	storedPerRow := float64(cnt.StoredBytes) / float64(cnt.LiveRows)
	beyondNote := fmt.Sprintf(" beyond=%d", beyond)

	p.metric("setup_s", setupS.median(), "s", len(setupS), "")
	if b.w.batchRows == 0 {
		p.metric("query_p50_s", p50, "s", len(lat), "")
		p.metric("query_p90_s", p90, "s", len(lat), beyondNote)
		p.metric("queries_per_s", opsPerS, "1/s", len(lat), fmt.Sprintf(" wall=%.3fs", wall))
		byClass := make([]sample, len(b.w.classes))
		for _, r := range recs {
			if !r.failed {
				byClass[r.class] = append(byClass[r.class], r.latency)
			}
		}
		b.sigmaMu.Lock()
		for i, q := range b.w.classes {
			fmt.Fprintf(p.w, "class %-8s query_p50_s=%.6g n=%d reference_rows=%d sigma=%d reference_sigma=%d\n",
				q.label, byClass[i].median(), len(byClass[i]), len(q.want), b.classSigma[i], q.maxSigma)
		}
		b.sigmaMu.Unlock()
		rp, classes := b.revealedPerQuery()
		p.metric("revealed_pairs_per_query", rp, "pairs", len(lat), fmt.Sprintf(" classes=%d", classes))
	} else {
		p.metric("ingest_rows_per_s", float64(rows)/wall, "rows/s", len(lat), fmt.Sprintf(" rows=%d wall=%.3fs", rows, wall))
		p.metric("upload_p50_s", p50, "s", len(lat), "")
		p.metric("upload_p90_s", p90, "s", len(lat), beyondNote)
	}
	p.metric("stored_bytes_per_row", storedPerRow, "bytes", int(cnt.LiveRows), fmt.Sprintf(" stored=%d", cnt.StoredBytes))
	p.metric("server_peak_rss_bytes", float64(rss), "bytes", 1, "")
	p.metric("error_rate", errRate, "ratio", len(recs), fmt.Sprintf(" failed=%d shed=%g", failed, shed))

	return map[string]metric{
		"setup_s":               {setupS.median(), "s"},
		"op_p50_s":              {p50, "s"},
		"op_p90_s":              {p90, "s"},
		"ops_per_s":             {opsPerS, "1/s"},
		"stored_bytes_per_row":  {storedPerRow, "bytes"},
		"server_peak_rss_bytes": {float64(rss), "bytes"},
		"success_rate":          {1 - errRate, "ratio"},
	}, nil
}

// traceLayers fills the per-layer metrics of a traced run, prints them
// with the per-span self-time summary, and reports the tracing overhead.
func (b *bench) traceLayers(p printer, m map[string]float64, tr *tracer, recs []opRecord, before, after metricsSnap) error {
	m["server.shed_total"] = delta(before, after, mShed)
	if b.w.batchRows > 0 {
		uploadLayers(m, recs, before, after)
	} else {
		queryLayers(m, recs, before, after)
		recs, pb, pa, err := b.probeUpload(tr)
		if err != nil {
			return err
		}
		uploadLayers(m, recs, pb, pa)
	}
	if err := b.replayPrimitives(tr, m); err != nil {
		return err
	}
	var err error
	if m["engine.step_self_s"], err = b.replaySteps(tr); err != nil {
		return err
	}

	var lt, lu sample
	for _, r := range recs {
		if r.traced {
			lt = append(lt, r.latency)
		} else {
			lu = append(lu, r.latency)
		}
	}
	m["trace.overhead_p50_s"] = lt.median() - lu.median()
	if lu.median() > 0 {
		m["trace.overhead_share"] = m["trace.overhead_p50_s"] / lu.median()
	}
	stats := tr.summary()
	for _, st := range stats {
		m["trace.spans"] += float64(st.Count)
		fmt.Fprintf(p.w, "layer %-28s count=%-5d self_s_per_call=%.6g total_s=%.6g\n", st.Name, st.Count, st.Self/float64(st.Count), st.Total)
	}
	fmt.Fprintf(p.w, "trace overhead: op p50 traced %.6gs (n=%d) - untraced %.6gs (n=%d) = %.6gs\n",
		lt.median(), len(lt), lu.median(), len(lu), m["trace.overhead_p50_s"])
	for _, lm := range layerMetrics {
		fmt.Fprintf(p.w, "metric %-34s %.6g %s\n", lm.name, m[lm.name], lm.unit)
	}
	return nil
}

// compareCounters reports whether the canonical pass counted exactly
// what the previous run with the same workload and seed counted, then
// stores this run's counters for the next comparison.
func compareCounters(out io.Writer, cfg config, cnt counters) error {
	dir := filepath.Join(cfg.workdir, "counters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	size := ""
	if cfg.tiny {
		size = "-tiny"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s%s-seed%d.json", cfg.workload, size, cfg.seed))
	cur, err := json.Marshal(cnt)
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		var pc counters
		if err := json.Unmarshal(prev, &pc); err == nil && pc == cnt {
			fmt.Fprintf(out, "counters: identical to the previous run of seed %d\n", cfg.seed)
		} else {
			fmt.Fprintf(out, "counters: DIFFER from the previous run of seed %d: was %s\n", cfg.seed, prev)
		}
	} else {
		fmt.Fprintf(out, "counters: first run of seed %d in %s\n", cfg.seed, dir)
	}
	return os.WriteFile(path, cur, 0o644)
}

// writeResults stores the run's record (host, metrics, counters and the
// per-layer summary) and, for a traced run, its spans.
func writeResults(cfg config, h host, res *result, cnt counters, tr *tracer) error {
	dir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v-%s", cfg.workload, cfg.seed, cfg.trace, time.Now().UTC().Format("20060102T150405")))
	rec := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Host     host        `json:"host"`
		Result   *result     `json:"result"`
		Counters counters    `json:"counters"`
		Layers   []layerStat `json:"layers,omitempty"`
	}{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Host: h, Result: res, Counters: cnt}
	if tr != nil {
		rec.Layers = tr.summary()
		if err := tr.writeJSONL(stem + "-spans.jsonl"); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".json", b, 0o644)
}
