package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
)

// params is the paper's Fig. 3 key setting: one filterable attribute,
// IN clauses of one value, IPE dimension 5.
var params = securejoin.Params{M: 1, T: 1}

// A run performs its whole set-up at least minSetupReps times, and more
// (up to maxSetupReps) while the set-ups so far took less than
// setupBudget, so a quick set-up is sampled often enough for a steady
// median. setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 5 * time.Second
)

// ingestTables is the fixed set of table names the ingest workload
// rotates over, so each batch overwrites a table and disk use stays
// bounded.
var ingestTables = []string{"Ingest0", "Ingest1", "Ingest2"}

// minQueries is the least number of queries the timed phase of a query
// workload completes, so that p90 keeps at least ten samples beyond it
// when the host runs slow: the loop runs past the deadline until then.
const minQueries = 100

// Batch numbers reserved for uploads outside the timed loop, far above
// any batch the loop reaches.
const (
	countBatch = 1 << 20
	probeBatch = 1 << 21
)

// workload fixes what one run generates, uploads and drives.
type workload struct {
	conns int
	// Query workloads: the base tables and the query rotation.
	tables  []table
	classes []queryClass
	// Ingest workload: rows per batch (0 for query workloads).
	batchRows int
}

// newWorkload sizes each workload so that a 30 s run completes well over
// minQueries queries on a 2-core host and its set-up, repeated at least
// minSetupReps times, stays a few seconds: SJ.Dec costs 15-20 ms per row
// per core, and encrypting plus validating an uploaded row about 15 ms.
func newWorkload(name string, seed int64, tiny bool) (*workload, error) {
	switch name {
	case "tpch_scan":
		// Every query decrypts all 22 rows: about 0.25 s.
		scale := 0.0000134 // 2 customers, 20 orders
		if tiny {
			scale = 0.000007 // 1 customer, 10 orders
		}
		tables, classes := scanData(scale, seed)
		return &workload{conns: 1, tables: tables, classes: classes}, nil
	case "tpch_chain":
		// 360 rows, of which a query decrypts about 15.
		scale := 0.0002 // 30 customers, 300 orders, 30 profiles
		if tiny {
			scale = 0.00004 // 6 customers, 60 orders, 6 profiles
		}
		tables, classes := chainData(scale, seed)
		return &workload{conns: 2, tables: tables, classes: classes}, nil
	case "ingest":
		rows := 50
		if tiny {
			rows = 5
		}
		return &workload{conns: 1, batchRows: rows}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpch_scan, tpch_chain or ingest)", name)
}

// expectedRows maps each base table to its row count after set-up.
func (w *workload) expectedRows() map[string]int {
	want := map[string]int{}
	for _, t := range w.tables {
		want[t.name] = len(t.rows)
	}
	if w.batchRows > 0 {
		for _, name := range ingestTables {
			want[name] = w.batchRows
		}
	}
	return want
}

// bench is one run: a child server, the clients driving it and
// everything measured.
type bench struct {
	cfg    config
	w      *workload
	runDir string

	srv     *childServer
	clients []*client.Client
	cat     *sql.Catalog
	batchNo int // next ingest batch number
	// scratch holds the row counts of tables uploaded outside the
	// workload's own set (the canonical pass's IngestCount).
	scratch map[string]int

	// classSigma pins each query class's revealed-pair count the first
	// time it runs; every later run of the class must repeat it.
	sigmaMu    sync.Mutex
	classSigma map[int]int

	mismatches atomic.Int64 // oracle mismatches (results, sigma, row counts)
}

// opRecord is the outcome of one timed operation.
type opRecord struct {
	latency  float64
	failed   bool
	class    int
	sigma    int
	results  int
	distinct int // distinct (table, row) pairs in the results
	steps    int
	compile  float64
	execute  float64 // ExecutePlan or UploadIndexed span
	rows     int     // rows uploaded
	// Traced operations only: what their proxy counted, and the server
	// time it saw (see proxy).
	traced  bool
	wire    int64
	frames  int64
	serverS float64
	end     time.Time
}

// setup performs the whole set-up once: server start, keygen, data
// generation, encrypt + upload of the base tables and SyncCatalog. It
// returns the elapsed time and leaves b.srv, b.clients and b.cat live.
func (b *bench) setup(rep int) (float64, error) {
	start := time.Now()
	srv, err := startServer(b.cfg.serverBin, filepath.Join(b.runDir, fmt.Sprintf("data%d", rep)))
	if err != nil {
		return 0, err
	}
	b.srv = srv
	c, err := client.Dial(srv.addr, params)
	if err != nil {
		return 0, fmt.Errorf("dial: %w", err)
	}
	b.clients = []*client.Client{c}
	w, err := newWorkload(b.cfg.workload, b.cfg.seed, b.cfg.tiny)
	if err != nil {
		return 0, err
	}
	b.w = w
	for _, t := range w.tables {
		if t.indexed {
			err = c.UploadIndexed(t.name, t.rows)
		} else {
			err = c.Upload(t.name, t.rows)
		}
		if err != nil {
			return 0, fmt.Errorf("uploading %s: %w", t.name, err)
		}
	}
	b.batchNo = 0
	b.scratch = map[string]int{}
	for _, name := range ingestTablesOf(w) {
		if err := c.UploadIndexed(name, ingestBatch(b.cfg.seed, b.batchNo, w.batchRows)); err != nil {
			return 0, fmt.Errorf("uploading %s: %w", name, err)
		}
		b.batchNo++
	}
	var schemas []sql.TableSchema
	for _, t := range w.tables {
		schemas = append(schemas, tpchSchemas[t.name])
	}
	for _, name := range ingestTablesOf(w) {
		s := tpchSchemas["Orders"]
		s.Name = name
		schemas = append(schemas, s)
	}
	if b.cat, err = sql.NewCatalog(schemas...); err != nil {
		return 0, err
	}
	if _, err := c.SyncCatalog(b.cat); err != nil {
		return 0, fmt.Errorf("sync catalog: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	if err := b.pinReferenceSigma(); err != nil {
		return 0, err
	}
	for len(b.clients) < w.conns {
		c2, err := client.DialWithKeys(srv.addr, c.Keys())
		if err != nil {
			return 0, fmt.Errorf("dial: %w", err)
		}
		b.clients = append(b.clients, c2)
	}
	return elapsed, b.checkTables(w.expectedRows())
}

func ingestTablesOf(w *workload) []string {
	if w.batchRows == 0 {
		return nil
	}
	return ingestTables
}

// teardown closes the clients and stops the server.
func (b *bench) teardown() {
	for _, c := range b.clients {
		c.Close()
	}
	b.clients = nil
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

// checkTables is the row-count oracle: DescribeTables must list exactly
// the expected tables, plus the scratch tables uploaded so far, with the
// expected row counts.
func (b *bench) checkTables(want map[string]int) error {
	infos, err := b.clients[0].DescribeTables()
	if err != nil {
		return fmt.Errorf("describe: %w", err)
	}
	want = maps.Clone(want)
	maps.Copy(want, b.scratch)
	got := map[string]int{}
	for _, t := range infos {
		got[t.Name] = t.Rows
		if _, ok := want[t.Name]; !ok {
			b.mismatches.Add(1)
			return fmt.Errorf("oracle: unexpected table %s (%d rows)", t.Name, t.Rows)
		}
	}
	for name, n := range want {
		if got[name] != n {
			b.mismatches.Add(1)
			return fmt.Errorf("oracle: table %s holds %d rows, want %d", name, got[name], n)
		}
	}
	return nil
}

// pinReferenceSigma compiles every query class against the synced
// catalog and stores the plaintext reference sigma(q) of its plan. A
// query that reveals more pairs than its reference fails the oracle.
func (b *bench) pinReferenceSigma() error {
	rows := map[string][]engine.PlainRow{}
	for _, t := range b.w.tables {
		rows[t.name] = t.rows
	}
	for i := range b.w.classes {
		q := &b.w.classes[i]
		plan, err := b.cat.Compile(q.sql)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", q.label, err)
		}
		q.maxSigma = referenceSigma(plan, rows, q.sel)
	}
	return nil
}

// liveRows sums the row counts the server reports.
func (b *bench) liveRows() (int, error) {
	infos, err := b.clients[0].DescribeTables()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range infos {
		n += t.Rows
	}
	return n, nil
}

// query runs one SQL query of the rotation on c and checks it against
// the plaintext reference. The timed span runs from Compile until
// ExecutePlan has emitted the last stitched row.
func (b *bench) query(c *client.Client, class int, tr *tracer, px *proxy) opRecord {
	q := &b.w.classes[class]
	op := tr.newOp()
	root := tr.reserve()
	m0 := b.traceScrape(tr)
	var wire0, frames0 int64
	var server0 time.Duration
	if px != nil {
		wire0, frames0 = px.counts()
		server0 = px.serverTime()
	}

	start := time.Now()
	plan, err := b.cat.Compile(q.sql)
	compiled := time.Now()
	var got []string
	distinct := map[[2]int]bool{}
	sigma := 0
	if err == nil {
		sigma, err = c.ExecutePlan(plan, func(r sql.ResultRow) error {
			got = append(got, resultKey(r.Rows, r.Payloads))
			for t, row := range r.Rows {
				distinct[[2]int{t, row}] = true
			}
			return nil
		})
	}
	end := time.Now()

	rec := opRecord{latency: end.Sub(start).Seconds(), class: class, sigma: sigma, results: len(got),
		distinct: len(distinct), compile: compiled.Sub(start).Seconds(), execute: end.Sub(compiled).Seconds(), end: end}
	if plan != nil {
		rec.steps = len(plan.Steps)
	}
	if px != nil {
		w, f := px.counts()
		rec.traced, rec.wire, rec.frames = true, w-wire0, f-frames0
		rec.serverS = (px.serverTime() - server0).Seconds()
	}
	if tr != nil {
		tr.record("sql.compile", op, root, start, compiled, nil)
		tr.record("client.execute_plan", op, root, compiled, end, map[string]float64{
			"wire_bytes": float64(rec.wire), "wire_frames": float64(rec.frames), "revealed_pairs": float64(sigma)})
		tr.recordAs(root, "op.query", op, 0, start, end, opCounts(m0, b.traceScrape(tr)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "query %s failed: %v\n", q.label, err)
		rec.failed = true
		return rec
	}
	sort.Strings(got)
	if !slices.Equal(got, q.want) {
		fmt.Fprintf(os.Stderr, "oracle: query class %s returned %d rows, reference has %d (or contents differ)\n", q.label, len(got), len(q.want))
		b.mismatches.Add(1)
		rec.failed = true
	}
	if sigma > q.maxSigma {
		fmt.Fprintf(os.Stderr, "oracle: query class %s revealed %d pairs, the plaintext reference reveals %d\n", q.label, sigma, q.maxSigma)
		b.mismatches.Add(1)
		rec.failed = true
	}
	b.sigmaMu.Lock()
	if prev, ok := b.classSigma[class]; !ok {
		b.classSigma[class] = sigma
	} else if prev != sigma {
		fmt.Fprintf(os.Stderr, "oracle: query class %s revealed %d pairs, earlier run of the class revealed %d\n", q.label, sigma, prev)
		b.mismatches.Add(1)
		rec.failed = true
	}
	b.sigmaMu.Unlock()
	return rec
}

// upload encrypts and uploads one batch with its SSE index; the timed
// span covers client-side encryption, the upload and the commit ack.
func (b *bench) upload(c *client.Client, name string, rows []engine.PlainRow, tr *tracer, px *proxy) opRecord {
	op := tr.newOp()
	root := tr.reserve()
	m0 := b.traceScrape(tr)
	var wire0, frames0 int64
	var server0 time.Duration
	if px != nil {
		wire0, frames0 = px.counts()
		server0 = px.serverTime()
	}
	start := time.Now()
	err := c.UploadIndexed(name, rows)
	end := time.Now()
	rec := opRecord{latency: end.Sub(start).Seconds(), execute: end.Sub(start).Seconds(), rows: len(rows), end: end}
	if px != nil {
		w, f := px.counts()
		rec.traced, rec.wire, rec.frames = true, w-wire0, f-frames0
		rec.serverS = (px.serverTime() - server0).Seconds()
	}
	if tr != nil {
		tr.record("client.upload", op, root, start, end, map[string]float64{
			"rows": float64(len(rows)), "wire_bytes": float64(rec.wire), "wire_frames": float64(rec.frames)})
		tr.recordAs(root, "op.upload", op, 0, start, end, opCounts(m0, b.traceScrape(tr)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "upload %s failed: %v\n", name, err)
		rec.failed = true
	}
	return rec
}

// ingest uploads the next batch of fresh Orders rows into the next
// table of the rotation, then checks the server's row counts.
func (b *bench) ingest(c *client.Client, tr *tracer, px *proxy) opRecord {
	n := b.batchNo
	b.batchNo++
	rec := b.upload(c, ingestTables[n%len(ingestTables)], ingestBatch(b.cfg.seed, n, b.w.batchRows), tr, px)
	if !rec.failed {
		if err := b.checkTables(b.w.expectedRows()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			rec.failed = true
		}
	}
	return rec
}

// traceScrape scrapes /metrics at an operation boundary of a traced
// run; untraced runs and failed scrapes yield nil.
func (b *bench) traceScrape(tr *tracer) metricsSnap {
	if tr == nil {
		return nil
	}
	snap, err := b.srv.scrape()
	if err != nil {
		return nil
	}
	return snap
}

// opCounts is the set of /metrics deltas a traced operation records on
// its root span. With two connections the deltas also hold whatever the
// other connection's operation did in the same interval, and a join's
// manifest checkpoint, written after its ack, can land in the next delta.
func opCounts(before, after metricsSnap) map[string]float64 {
	if before == nil || after == nil {
		return nil
	}
	out := map[string]float64{}
	for _, series := range []string{mRowsDecrypted, mDecSum, mJoinSum, mJoinReqSum, mUploadReqSum, mShed, mSnapshotBytes, mWALBytes} {
		out[series] = delta(before, after, series)
	}
	return out
}

// loop runs the workload's closed loop on the run's clients until the
// deadline has passed and at least minOps operations have completed:
// each client sends its next operation only after the previous one
// completed. Query classes rotate globally across clients. With a
// tracer, operations alternate in blocks of one rotation (one batch on
// ingest) between the direct connections, untraced, and the proxied
// ones, traced, so that drift over the run touches both alike.
func (b *bench) loop(seconds float64, minOps int64, tr *tracer, proxied []*client.Client, proxies []*proxy) (recs []opRecord, wall float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	block := max(1, len(b.w.classes))
	var next, done atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, direct := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || done.Load() < minOps {
				n := int(next.Add(1) - 1)
				c, t, px := direct, (*tracer)(nil), (*proxy)(nil)
				if tr != nil && n/block%2 == 1 {
					c, t, px = proxied[i], tr, proxies[i]
				}
				var rec opRecord
				if b.w.batchRows > 0 {
					rec = b.ingest(c, t, px)
				} else {
					rec = b.query(c, n%block, t, px)
				}
				done.Add(1)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	last := start
	for _, r := range recs {
		if r.end.After(last) {
			last = r.end
		}
	}
	return recs, last.Sub(start).Seconds()
}

// revealedPerQuery is the mean sigma(q) over one full rotation of the
// query classes. Every run of a class must reveal the same pairs (the
// oracle checks it), so this equals the mean over all completed
// rotations and is exact for a seed.
func (b *bench) revealedPerQuery() (float64, int) {
	b.sigmaMu.Lock()
	defer b.sigmaMu.Unlock()
	if len(b.classSigma) == 0 {
		return 0, 0
	}
	sum := 0
	for _, s := range b.classSigma {
		sum += s
	}
	return float64(sum) / float64(len(b.classSigma)), len(b.classSigma)
}

// counters are the machine-independent counts of one canonical pass
// (each query class once, or one ingest batch, on a single connection
// right after set-up). They repeat exactly across runs with the same
// seed. StoredBytes and LiveRows are read when the pass has finished.
type counters struct {
	RowsDecrypted     int64 `json:"rows_decrypted"`
	RevealedPairs     int64 `json:"revealed_pairs"`
	ResultRows        int64 `json:"result_rows"`
	WireBytes         int64 `json:"wire_bytes"`
	WireFrames        int64 `json:"wire_frames"`
	StoreBytesWritten int64 `json:"store_bytes_written"`
	StoredBytes       int64 `json:"stored_bytes"`
	LiveRows          int64 `json:"live_rows"`
}

// countPass runs the canonical pass through a counting proxy on a fresh
// connection sharing the run's keys.
func (b *bench) countPass() (counters, error) {
	var cnt counters
	px, err := startProxy(b.srv.addr)
	if err != nil {
		return cnt, err
	}
	defer px.close()
	c, err := client.DialWithKeys(px.addr(), b.clients[0].Keys())
	if err != nil {
		return cnt, err
	}
	defer c.Close()
	before, err := b.srv.scrape()
	if err != nil {
		return cnt, err
	}
	w0, f0 := px.counts()
	if b.w.batchRows > 0 {
		if err := c.UploadIndexed("IngestCount", ingestBatch(b.cfg.seed, countBatch, b.w.batchRows)); err != nil {
			return cnt, fmt.Errorf("counting pass upload: %w", err)
		}
		b.scratch["IngestCount"] = b.w.batchRows
	} else {
		for i := range b.w.classes {
			rec := b.query(c, i, nil, nil)
			if rec.failed {
				return cnt, fmt.Errorf("counting pass query %s failed", b.w.classes[i].label)
			}
			cnt.RevealedPairs += int64(rec.sigma)
			cnt.ResultRows += int64(rec.results)
		}
	}
	w1, f1 := px.counts()
	after, err := b.srv.settle()
	if err != nil {
		return cnt, err
	}
	cnt.WireBytes, cnt.WireFrames = w1-w0, f1-f0
	cnt.RowsDecrypted = int64(delta(before, after, mRowsDecrypted))
	cnt.StoreBytesWritten = int64(delta(before, after, mSnapshotBytes) + delta(before, after, mWALBytes))
	if cnt.StoredBytes, err = dirBytes(b.srv.dataDir); err != nil {
		return cnt, err
	}
	live, err := b.liveRows()
	cnt.LiveRows = int64(live)
	return cnt, err
}

// dialProxied opens n connections sharing the run's keys, each through
// its own counting proxy.
func (b *bench) dialProxied(n int) ([]*client.Client, []*proxy, error) {
	var cs []*client.Client
	var ps []*proxy
	closeAll := func() {
		for _, c := range cs {
			c.Close()
		}
		for _, p := range ps {
			p.close()
		}
	}
	for range n {
		px, err := startProxy(b.srv.addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		ps = append(ps, px)
		c, err := client.DialWithKeys(px.addr(), b.clients[0].Keys())
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cs = append(cs, c)
	}
	return cs, ps, nil
}

// keys returns the run's client key material.
func (b *bench) keys() *engine.Client { return b.clients[0].Keys() }
