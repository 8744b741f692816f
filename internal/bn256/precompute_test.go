package bn256

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

func randPairBatch(t *testing.T, n int) ([]*G1, []*G2) {
	t.Helper()
	ps := make([]*G1, n)
	qs := make([]*G2, n)
	for i := 0; i < n; i++ {
		var err error
		if _, ps[i], err = RandomG1(rand.Reader); err != nil {
			t.Fatal(err)
		}
		if _, qs[i], err = RandomG2(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	return ps, qs
}

// TestPairBatchPrecomputedMatchesPairBatch pins the fixed-argument
// evaluation against the direct batched pairing and against the
// product of single pairings over a range of batch sizes.
func TestPairBatchPrecomputedMatchesPairBatch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		ps, qs := randPairBatch(t, n)
		pc := PrecomputePairBatch(qs)
		if pc.Size() != n {
			t.Fatalf("Size() = %d, want %d", pc.Size(), n)
		}
		want := PairBatch(ps, qs)
		got := PairBatchPrecomputed(pc, ps)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("n=%d: precomputed pairing disagrees with PairBatch", n)
		}
		prod := new(GT).SetOne()
		for i := range ps {
			prod.Mul(prod, Pair(ps[i], qs[i]))
		}
		if !got.Equal(prod) {
			t.Fatalf("n=%d: precomputed pairing disagrees with the product of pairings", n)
		}
	}
}

// TestPairBatchPrecomputedReuse checks that one handle evaluated
// against several distinct G1 batches matches PairBatch on each.
func TestPairBatchPrecomputedReuse(t *testing.T) {
	const n = 4
	_, qs := randPairBatch(t, n)
	pc := PrecomputePairBatch(qs)
	for round := 0; round < 3; round++ {
		ps, _ := randPairBatch(t, n)
		want := PairBatch(ps, qs)
		got := PairBatchPrecomputed(pc, ps)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("round %d: precomputed pairing diverged on reuse", round)
		}
	}
}

// TestPairBatchPrecomputedEdgeCases covers the degenerate inputs: a
// point at infinity on either side, the single-slot batch, and the
// empty batch, each of which must agree with PairBatch.
func TestPairBatchPrecomputedEdgeCases(t *testing.T) {
	infG1 := new(G1).ScalarBaseMult(Order)
	infG2 := new(G2).ScalarBaseMult(Order)
	if !infG1.IsInfinity() || !infG2.IsInfinity() {
		t.Fatal("Order multiple is not the identity")
	}

	t.Run("empty", func(t *testing.T) {
		pc := PrecomputePairBatch(nil)
		got := PairBatchPrecomputed(pc, nil)
		if !got.IsOne() {
			t.Fatal("empty batch is not the identity")
		}
		want := PairBatch(nil, nil)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("empty batch disagrees with PairBatch")
		}
	})

	t.Run("single", func(t *testing.T) {
		ps, qs := randPairBatch(t, 1)
		pc := PrecomputePairBatch(qs)
		got := PairBatchPrecomputed(pc, ps)
		want := PairBatch(ps, qs)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("single-slot batch disagrees with PairBatch")
		}
	})

	t.Run("g1-infinity", func(t *testing.T) {
		ps, qs := randPairBatch(t, 3)
		ps[1] = infG1
		pc := PrecomputePairBatch(qs)
		got := PairBatchPrecomputed(pc, ps)
		want := PairBatch([]*G1{ps[0], ps[2]}, []*G2{qs[0], qs[2]})
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("G1 infinity slot does not contribute the identity")
		}
	})

	t.Run("g2-infinity", func(t *testing.T) {
		ps, qs := randPairBatch(t, 3)
		qs[2] = infG2
		pc := PrecomputePairBatch(qs)
		got := PairBatchPrecomputed(pc, ps)
		want := PairBatch(ps[:2], qs[:2])
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("G2 infinity slot does not contribute the identity")
		}
	})

	t.Run("all-infinity", func(t *testing.T) {
		ps := []*G1{infG1, infG1}
		qs := []*G2{infG2, infG2}
		pc := PrecomputePairBatch(qs)
		if got := PairBatchPrecomputed(pc, ps); !got.IsOne() {
			t.Fatal("all-infinity batch is not the identity")
		}
	})

	t.Run("mismatched-length-panics", func(t *testing.T) {
		ps, qs := randPairBatch(t, 2)
		pc := PrecomputePairBatch(qs)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on mismatched batch length")
			}
		}()
		PairBatchPrecomputed(pc, ps[:1])
	})
}

// TestPairingPrecompConcurrent shares one handle across goroutines,
// each evaluating its own G1 batch; under -race this doubles as the
// data-race check for the shared read-only program.
func TestPairingPrecompConcurrent(t *testing.T) {
	const n = 3
	const workers = 8
	_, qs := randPairBatch(t, n)
	pc := PrecomputePairBatch(qs)

	type job struct {
		ps   []*G1
		want []byte
	}
	jobs := make([]job, workers)
	for i := range jobs {
		ps, _ := randPairBatch(t, n)
		jobs[i] = job{ps: ps, want: PairBatch(ps, qs).Marshal()}
	}

	var wg sync.WaitGroup
	bad := make([]bool, workers)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := PairBatchPrecomputed(pc, jobs[i].ps)
			if !bytes.Equal(got.Marshal(), jobs[i].want) {
				bad[i] = true
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bad {
		if b {
			t.Fatalf("worker %d: concurrent precomputed pairing diverged", i)
		}
	}
}

// TestPrecomputeBilinearity checks e(P, kQ) = e(P, Q)^k and
// e(kP, Q) = e(P, Q)^k through the precomputed path.
func TestPrecomputeBilinearity(t *testing.T) {
	k, q, err := RandomG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	pc := PrecomputePairBatch([]*G2{q})
	lhs := PairBatchPrecomputed(pc, []*G1{p})

	g := new(G2).ScalarBaseMult(big.NewInt(1))
	pcG := PrecomputePairBatch([]*G2{g})
	rhs := new(GT).Exp(PairBatchPrecomputed(pcG, []*G1{p}), k)
	if !bytes.Equal(lhs.Marshal(), rhs.Marshal()) {
		t.Fatal("precomputed pairing is not bilinear in G2")
	}

	kp := new(G1).ScalarMult(p, k)
	if !PairBatchPrecomputed(pcG, []*G1{kp}).Equal(rhs) {
		t.Fatal("precomputed pairing is not bilinear in G1")
	}
}

// TestMillerProgramOpCount is a machine-independent cost counter: the
// recorded program for a d=5 batch (the SJ.Dec token size for m=1, t=1)
// must stay an optimal ate loop — one squaring per NAF digit of 6u+2
// below the top, and per slot 65 doublings, 21 NAF additions and two
// Frobenius lines.
func TestMillerProgramOpCount(t *testing.T) {
	if len(ateLoopNAF) != 66 {
		t.Fatalf("NAF(6u+2) has %d digits, want 66", len(ateLoopNAF))
	}
	_, qs := randPairBatch(t, 5)
	pc := PrecomputePairBatch(qs)
	var squarings, lines int
	for _, op := range pc.ops {
		if op.slot < 0 {
			squarings++
		} else {
			lines++
		}
	}
	t.Logf("d=5 program: %d squarings, %d lines", squarings, lines)
	if squarings > 66 || lines > 450 {
		t.Fatalf("d=5 program has %d squarings and %d lines, want <= 66 and <= 450", squarings, lines)
	}
	if want := 5 * (65 + 21 + 2); lines != want {
		t.Fatalf("d=5 program has %d lines, want %d", lines, want)
	}
}
