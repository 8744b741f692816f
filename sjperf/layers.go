package main

import (
	"crypto/rand"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/bn256"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/sse"
	"repro/internal/store"
	"repro/internal/zq"
)

// layerMetrics is the ordered list of per-layer metrics a traced run
// reports, with their units. Metrics of a layer a workload never
// reaches (query metrics on ingest) read 0.
var layerMetrics = []struct{ name, unit string }{
	{"bn256.pair_s", "s"},
	{"bn256.g2_mult_s", "s"},
	{"bn256.g1_mult_s", "s"},
	{"securejoin.dec_row_s", "s"},
	{"securejoin.encrypt_row_s", "s"},
	{"securejoin.tokengen_s", "s"},
	{"securejoin.precompute_s", "s"},
	{"securejoin.ciphertext_bytes", "bytes"},
	{"sse.index_s_per_row", "s"},
	{"engine.rows_decrypted_per_query", "count"},
	{"engine.useful_decrypt_ratio", "ratio"},
	{"engine.dec_s_per_query", "s"},
	{"engine.join_s_per_query", "s"},
	{"engine.step_self_s", "s"},
	{"server.join_request_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.upload_request_s", "s"},
	{"server.shed_total", "count"},
	{"wire.bytes_per_query", "bytes"},
	{"wire.bytes_per_uploaded_row", "bytes"},
	{"wire.frames_per_query", "count"},
	{"store.snapshot_bytes_per_row", "bytes"},
	{"store.wal_bytes_per_query", "bytes"},
	{"store.commit_s", "s"},
	{"client.self_s_per_query", "s"},
	{"client.upload_self_s", "s"},
	{"sql.compile_s", "s"},
	{"sql.steps_per_query", "count"},
	{"trace.overhead_p50_s", "s"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// Replay sizes: enough calls for a stable mean, few enough to keep the
// traced run's extra time to a few seconds.
const (
	replayPairs    = 6
	replayMults    = 20
	replayRows     = 16
	replayTokens   = 8
	replayPrecomps = 4
	replayIndexes  = 3
	replayCommits  = 5
	probeUploads   = 3
	probeRows      = 50
)

// perOp divides a total by an operation count, reading 0 when the
// workload ran no such operation.
func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// proxied sums what the proxies saw of the traced records: operations,
// rows uploaded, wire bytes and frames, server time, and the client's
// own time (the operation's execute span outside the server time).
type proxied struct {
	n, rows                      int
	wire, frames, server, client float64
}

func proxiedTotals(recs []opRecord) proxied {
	var t proxied
	for _, r := range recs {
		if r.traced {
			t.n++
			t.rows += r.rows
			t.wire += float64(r.wire)
			t.frames += float64(r.frames)
			t.server += r.serverS
			t.client += r.execute - r.serverS
		}
	}
	return t
}

// queryLayers derives the query-path layer metrics from the timed
// phase's records and the /metrics deltas across it; the deltas cover
// every record, traced or not.
func queryLayers(m map[string]float64, recs []opRecord, before, after metricsSnap) {
	n := len(recs)
	var distinct, compile, steps float64
	for _, r := range recs {
		distinct += float64(r.distinct)
		compile += r.compile
		steps += float64(r.steps)
	}
	px := proxiedTotals(recs)
	rows := delta(before, after, mRowsDecrypted)
	m["engine.rows_decrypted_per_query"] = perOp(rows, n)
	m["engine.useful_decrypt_ratio"] = perOp(distinct, int(rows))
	m["engine.dec_s_per_query"] = perOp(delta(before, after, mDecSum), n)
	m["engine.join_s_per_query"] = perOp(delta(before, after, mJoinSum), n)
	// The server's join request time starts when a worker takes the
	// join off the queue; the proxy's server time starts when the
	// request arrives, so the difference is the time spent queued.
	m["server.join_request_s"] = perOp(delta(before, after, mJoinReqSum), n)
	m["server.queue_wait_s"] = perOp(px.server, px.n) - m["server.join_request_s"]
	m["wire.bytes_per_query"] = perOp(px.wire, px.n)
	m["wire.frames_per_query"] = perOp(px.frames, px.n)
	m["store.wal_bytes_per_query"] = perOp(delta(before, after, mWALBytes), n)
	m["client.self_s_per_query"] = perOp(px.client, px.n)
	m["sql.compile_s"] = perOp(compile, n)
	m["sql.steps_per_query"] = perOp(steps, n)
}

// uploadLayers derives the write-path layer metrics from upload records
// and the /metrics deltas across them.
func uploadLayers(m map[string]float64, recs []opRecord, before, after metricsSnap) {
	px := proxiedTotals(recs)
	m["server.upload_request_s"] = perOp(delta(before, after, mUploadReqSum), len(recs))
	m["client.upload_self_s"] = perOp(px.client, px.n)
	m["wire.bytes_per_uploaded_row"] = perOp(px.wire, px.rows)
	rows := 0
	for _, r := range recs {
		rows += r.rows
	}
	m["store.snapshot_bytes_per_row"] = perOp(delta(before, after, mSnapshotBytes), rows)
}

// probeUpload runs a few traced uploads of fresh Orders batches into
// scratch tables, so query workloads report write-path layers too.
func (b *bench) probeUpload(tr *tracer) ([]opRecord, metricsSnap, metricsSnap, error) {
	cs, ps, err := b.dialProxied(1)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
		for _, p := range ps {
			p.close()
		}
	}()
	before, err := b.srv.scrape()
	if err != nil {
		return nil, nil, nil, err
	}
	var recs []opRecord
	for i := range probeUploads {
		rec := b.upload(cs[0], fmt.Sprintf("Probe%d", i), ingestBatch(b.cfg.seed, probeBatch+i, probeRows), tr, ps[0])
		if rec.failed {
			return nil, nil, nil, fmt.Errorf("probe upload %d failed", i)
		}
		recs = append(recs, rec)
	}
	after, err := b.srv.scrape()
	return recs, before, after, err
}

// timeSpans runs fn n times, recording one span per call under a replay
// root, and returns the mean duration in seconds.
func timeSpans(tr *tracer, op, root int64, name string, n int, fn func(i int) error) (float64, error) {
	var total time.Duration
	for i := range n {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		tr.record(name, op, root, start, end, nil)
		total += end.Sub(start)
	}
	return total.Seconds() / float64(n), nil
}

// replayPrimitives times the pairing, scheme, index and store layers in
// isolation, outside any timed operation, on rows shaped like the
// workload's own.
func (b *bench) replayPrimitives(tr *tracer, m map[string]float64) error {
	op := tr.newOp()
	root := tr.reserve()
	start := time.Now()
	defer func() { tr.recordAs(root, "replay.primitives", op, 0, start, time.Now(), nil) }()

	_, g1, err := bn256.RandomG1(rand.Reader)
	if err != nil {
		return err
	}
	_, g2, err := bn256.RandomG2(rand.Reader)
	if err != nil {
		return err
	}
	k, err := zq.RandomNonZero(rand.Reader)
	if err != nil {
		return err
	}
	if m["bn256.pair_s"], err = timeSpans(tr, op, root, "bn256.pair", replayPairs, func(int) error {
		bn256.Pair(g1, g2)
		return nil
	}); err != nil {
		return err
	}
	if m["bn256.g1_mult_s"], err = timeSpans(tr, op, root, "bn256.g1_mult", replayMults, func(int) error {
		new(bn256.G1).ScalarMult(g1, k.Big())
		return nil
	}); err != nil {
		return err
	}
	if m["bn256.g2_mult_s"], err = timeSpans(tr, op, root, "bn256.g2_mult", replayMults, func(int) error {
		new(bn256.G2).ScalarMult(g2, k.Big())
		return nil
	}); err != nil {
		return err
	}

	rows := ingestBatch(b.cfg.seed, probeBatch+probeUploads, probeRows)
	scheme, err := securejoin.Setup(params, nil)
	if err != nil {
		return err
	}
	cts := make([]*securejoin.RowCiphertext, replayRows)
	if m["securejoin.encrypt_row_s"], err = timeSpans(tr, op, root, "securejoin.encrypt_row", replayRows, func(i int) error {
		cts[i], err = scheme.Encrypt(securejoin.Row{JoinValue: rows[i].JoinValue, Attrs: rows[i].Attrs})
		return err
	}); err != nil {
		return err
	}
	ct, err := cts[0].MarshalBinary()
	if err != nil {
		return err
	}
	m["securejoin.ciphertext_bytes"] = float64(len(ct))
	sel := securejoin.Selection{0: {rows[0].Attrs[0]}}
	var tok *securejoin.Token
	if m["securejoin.tokengen_s"], err = timeSpans(tr, op, root, "securejoin.tokengen", replayTokens, func(int) error {
		tok, err = scheme.TokenGen(k, sel)
		return err
	}); err != nil {
		return err
	}
	var pc *securejoin.TokenPrecomp
	if m["securejoin.precompute_s"], err = timeSpans(tr, op, root, "securejoin.precompute", replayPrecomps, func(int) error {
		pc = tok.Precompute()
		return nil
	}); err != nil {
		return err
	}
	if m["securejoin.dec_row_s"], err = timeSpans(tr, op, root, "securejoin.dec_row", replayRows, func(i int) error {
		_, err := pc.Decrypt(cts[i])
		return err
	}); err != nil {
		return err
	}

	sc, err := sse.NewClient(rand.Reader)
	if err != nil {
		return err
	}
	attrs := make([][][]byte, len(rows))
	for i, r := range rows {
		attrs[i] = r.Attrs
	}
	idx, err := timeSpans(tr, op, root, "sse.build_index", replayIndexes, func(int) error {
		_, err := sc.BuildIndex(attrs)
		return err
	})
	if err != nil {
		return err
	}
	m["sse.index_s_per_row"] = idx / float64(len(rows))

	dir := filepath.Join(b.runDir, "commit-replay")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	eng := engine.NewServer()
	eng.SetStore(st)
	table, err := b.keys().EncryptTableIndexed("Commit", rows)
	if err != nil {
		return err
	}
	m["store.commit_s"], err = timeSpans(tr, op, root, "store.commit", replayCommits, func(int) error {
		return eng.RegisterTable(table)
	})
	return err
}

// replaySteps re-runs every query class of the rotation through an
// in-process engine holding the same tables, with a wrapper around
// sql.EngineRunner that records one span per plan step, and returns the
// mean step self time. The replayed results go through the oracle too.
func (b *bench) replaySteps(tr *tracer) (float64, error) {
	if len(b.w.classes) == 0 {
		return 0, nil
	}
	eng := engine.NewServer()
	for _, t := range b.w.tables {
		var enc *engine.EncryptedTable
		var err error
		if t.indexed {
			enc, err = b.keys().EncryptTableIndexed(t.name, t.rows)
		} else {
			enc, err = b.keys().EncryptTable(t.name, t.rows)
		}
		if err != nil {
			return 0, err
		}
		eng.Upload(enc)
	}
	var total float64
	steps := 0
	for _, q := range b.w.classes {
		plan, err := b.cat.Compile(q.sql)
		if err != nil {
			return 0, err
		}
		op := tr.newOp()
		root := tr.reserve()
		runner := &tracedRunner{inner: sql.EngineRunner{Eng: eng, Keys: b.keys()}, tr: tr, op: op, parent: root}
		var got []string
		start := time.Now()
		if _, err := sql.Execute(runner, plan, func(r sql.ResultRow) error {
			got = append(got, resultKey(r.Rows, r.Payloads))
			return nil
		}); err != nil {
			return 0, fmt.Errorf("replaying %s: %w", q.label, err)
		}
		tr.recordAs(root, "replay.query", op, 0, start, time.Now(), nil)
		sort.Strings(got)
		if !slices.Equal(got, q.want) {
			b.mismatches.Add(1)
			return 0, fmt.Errorf("oracle: replay of class %s disagrees with the reference", q.label)
		}
		total += runner.total.Seconds()
		steps += runner.steps
	}
	return perOp(total, steps), nil
}

// tracedRunner wraps a sql.StepRunner, recording an engine.step span
// from RunStep until the step's stream is drained or closed.
type tracedRunner struct {
	inner      sql.StepRunner
	tr         *tracer
	op, parent int64
	total      time.Duration
	steps      int
}

func (r *tracedRunner) RunStep(p *sql.Plan, step int, in sql.StepInput) (sql.StepStream, error) {
	start := time.Now()
	s, err := r.inner.RunStep(p, step, in)
	if err != nil {
		return nil, err
	}
	return &tracedStream{StepStream: s, r: r, start: start}, nil
}

type tracedStream struct {
	sql.StepStream
	r     *tracedRunner
	start time.Time
	done  bool
}

func (s *tracedStream) Next() ([]sql.StepRow, error) {
	rows, err := s.StepStream.Next()
	if err == io.EOF {
		s.finish()
	}
	return rows, err
}

func (s *tracedStream) Close() {
	s.StepStream.Close()
	s.finish()
}

func (s *tracedStream) finish() {
	if s.done {
		return
	}
	s.done = true
	end := time.Now()
	s.r.tr.record("engine.step", s.r.op, s.r.parent, s.start, end, nil)
	s.r.total += end.Sub(s.start)
	s.r.steps++
}
