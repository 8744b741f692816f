package bn256

// The optimal ate pairing on BN curves (Vercauteren, "Optimal
// Pairings", IEEE TIT 2010):
//
//	e(P, Q) = (f_{6u+2,Q}(P) * l_{T,pi(Q)}(P) * l_{T+pi(Q),-pi^2(Q)}(P))^((p^12-1)/r)
//
// where T = [6u+2]Q and pi is the twisted Frobenius (twistPoint.Frobenius).
// The Miller loop walks multiples of Q on the twist over the NAF of
// 6u+2: 65 doublings and 21 additions, then the two Frobenius lines.
//
// Every point the loop visits, and so every line slope, depends only
// on Q. The loop is therefore split in two: recordMiller walks a fixed
// batch of G2 points once, in affine coordinates with the per-step
// inversions batched across the batch (Montgomery's trick), and records
// a flat program of accumulator squarings and line coefficients;
// PairingPrecomp.miller evaluates that program at a batch of G1 points.
// Pair and PairBatch record and evaluate in one go, so there is exactly
// one Miller loop. SJ.Dec pairs one token (G2) against every row
// ciphertext (G1) of a table, so the server records once per token and
// pays only the evaluation per row.
//
// A line through twist points T and T' with slope lambda, untwisted by
// (x, y) -> (omega^2 x, omega^3 y), evaluates at P = (xP, yP) in E(Fp) to
//
//	l(P) = yP + (-lambda xP) omega + (lambda Tx - Ty) omega^3.
//
// Any factor in a proper subfield of Fp12 is erased by the final
// exponentiation (p^2-1 divides (p^12-1)/r), so each recorded line is
// divided by its Fp2 constant c = lambda Tx - Ty. The evaluation then
// multiplies in the sparse element a yP + (b xP) omega + omega^3 with
// a = 1/c and b = -lambda/c, which mulLine does with 9 Fp2
// multiplications. The rare c == 0 line keeps a = 1, b = -lambda.

// lineOp is one step of a recorded Miller program: an accumulator
// squaring (slot < 0), or a line multiplication for slot.
type lineOp struct {
	slot  int32
	monic bool // the omega^3 coefficient is 1 (else 0)
	a, b  gfP2
}

// PairingPrecomp is the recorded Miller program of a fixed batch of G2
// points. It is immutable after construction and safe for concurrent
// use by multiple goroutines.
type PairingPrecomp struct {
	n   int
	ops []lineOp
}

// Size returns the number of G2 slots the program was built for.
func (pc *PairingPrecomp) Size() int { return pc.n }

// batchInvert replaces each element of xs with its inverse using
// Montgomery's trick: one field inversion plus 3(n-1) multiplications.
// All inputs must be non-zero.
func batchInvert(xs []*gfP2) {
	n := len(xs)
	if n == 0 {
		return
	}
	prefix := make([]gfP2, n)
	prefix[0] = *xs[0]
	for i := 1; i < n; i++ {
		prefix[i].Mul(&prefix[i-1], xs[i])
	}
	var inv gfP2
	inv.Invert(&prefix[n-1])
	for i := n - 1; i >= 1; i-- {
		var xi gfP2
		xi.Mul(&inv, &prefix[i-1])
		inv.Mul(&inv, xs[i])
		*xs[i] = xi
	}
	*xs[0] = inv
}

// affine2 is an affine twist point.
type affine2 struct {
	x, y gfP2
}

// millerSlot is the recording state of one G2 point: the point, its
// negation and Frobenius twists, and the running multiple T.
type millerSlot struct {
	slot                 int32
	q, negQ, piQ, negPi2 affine2
	t                    affine2
	dead                 bool // T hit a degenerate step (never for points of G2)
}

// millerRecorder records the program of one G2 batch.
type millerRecorder struct {
	ops   []lineOp
	slots []*millerSlot
	live  []*millerSlot
	dens  []gfP2
	inv   []*gfP2
}

// step records, for every live slot, the line through T and the point
// chosen by other (T itself for a tangent), and moves T to their sum.
// A vertical line (T = -other) or a tangent at a 2-torsion point only
// arises outside the order-r subgroup; such a slot stops contributing.
func (r *millerRecorder) step(other func(*millerSlot) *affine2) {
	r.live, r.inv = r.live[:0], r.inv[:0]
	for _, s := range r.slots {
		if s.dead {
			continue
		}
		d := &r.dens[len(r.live)]
		if o := other(s); o == nil {
			d.Double(&s.t.y) // tangent: lambda = 3x^2 / 2y
		} else {
			d.Sub(&o.x, &s.t.x) // chord: lambda = (y' - y) / (x' - x)
		}
		if d.IsZero() {
			s.dead = true
			continue
		}
		r.live = append(r.live, s)
		r.inv = append(r.inv, d)
	}
	batchInvert(r.inv)
	for j, s := range r.live {
		o := other(s)
		var lambda, x2 gfP2
		if o == nil {
			lambda.Square(&s.t.x)
			x2.Double(&lambda)
			lambda.Add(&lambda, &x2)
			x2.Set(&s.t.x)
		} else {
			lambda.Sub(&o.y, &s.t.y)
			x2.Set(&o.x)
		}
		lambda.Mul(&lambda, r.inv[j])

		// Record the raw line: a = c = lambda Tx - Ty, b = lambda.
		op := lineOp{slot: s.slot}
		op.a.Mul(&lambda, &s.t.x)
		op.a.Sub(&op.a, &s.t.y)
		op.b.Set(&lambda)
		r.ops = append(r.ops, op)

		// T = T + other: x3 = lambda^2 - Tx - x2, y3 = lambda(Tx - x3) - Ty.
		var x3, y3 gfP2
		x3.Square(&lambda)
		x3.Sub(&x3, &s.t.x)
		x3.Sub(&x3, &x2)
		y3.Sub(&s.t.x, &x3)
		y3.Mul(&y3, &lambda)
		y3.Sub(&y3, &s.t.y)
		s.t.x, s.t.y = x3, y3
	}
}

// normalizeLines divides every recorded line by its Fp2 constant c,
// batching the inversions, so that a = 1/c and b = -lambda/c. Lines
// with c == 0 keep a = 1, b = -lambda and no omega^3 term.
func normalizeLines(ops []lineOp) {
	invs := make([]*gfP2, 0, len(ops))
	for i := range ops {
		if op := &ops[i]; op.slot >= 0 && !op.a.IsZero() {
			invs = append(invs, &op.a)
		}
	}
	batchInvert(invs)
	for i := range ops {
		op := &ops[i]
		if op.slot < 0 {
			continue
		}
		if op.a.IsZero() {
			op.a.SetOne()
		} else {
			op.monic = true
			op.b.Mul(&op.b, &op.a)
		}
		op.b.Neg(&op.b)
	}
}

// recordMiller records the optimal ate Miller program of a G2 batch.
// Slots at infinity record nothing and so contribute the identity.
func recordMiller(qs []*twistPoint) *PairingPrecomp {
	n := len(qs)
	r := &millerRecorder{
		dens: make([]gfP2, n),
		inv:  make([]*gfP2, 0, n),
		live: make([]*millerSlot, 0, n),
	}
	for i, q := range qs {
		if q.IsInfinity() {
			continue
		}
		var a, pi twistPoint
		a.Set(q)
		a.MakeAffine()
		s := &millerSlot{slot: int32(i)}
		s.q = affine2{a.x, a.y}
		s.negQ.x = a.x
		s.negQ.y.Neg(&a.y)
		pi.Frobenius(&a)
		s.piQ = affine2{pi.x, pi.y}
		pi.Frobenius(&pi)
		s.negPi2.x = pi.x
		s.negPi2.y.Neg(&pi.y)
		s.t = s.q
		r.slots = append(r.slots, s)
	}

	tangent := func(*millerSlot) *affine2 { return nil }
	// 65 squarings plus 88 lines per slot.
	r.ops = make([]lineOp, 0, len(ateLoopNAF)*(1+n)+22*n)
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		r.ops = append(r.ops, lineOp{slot: -1})
		r.step(tangent)
		switch ateLoopNAF[i] {
		case 1:
			r.step(func(s *millerSlot) *affine2 { return &s.q })
		case -1:
			r.step(func(s *millerSlot) *affine2 { return &s.negQ })
		}
	}
	r.step(func(s *millerSlot) *affine2 { return &s.piQ })
	r.step(func(s *millerSlot) *affine2 { return &s.negPi2 })
	normalizeLines(r.ops)
	return &PairingPrecomp{n: n, ops: r.ops}
}

// miller evaluates the recorded program at a batch of G1 points. Slots
// whose P is infinite contribute the identity. Accumulator squarings
// are elided while the accumulator is still one.
func (pc *PairingPrecomp) miller(ps []*curvePoint) gfP12 {
	xs := make([]gfP, pc.n)
	ys := make([]gfP, pc.n)
	skip := make([]bool, pc.n)
	for i, p := range ps {
		if p.IsInfinity() {
			skip[i] = true
			continue
		}
		var a curvePoint
		a.Set(p)
		a.MakeAffine()
		xs[i], ys[i] = a.x, a.y
	}

	var f gfP12
	f.SetOne()
	one := true
	var l0, l1 gfP2
	for i := range pc.ops {
		op := &pc.ops[i]
		if op.slot < 0 {
			if !one {
				f.Square(&f)
			}
			continue
		}
		if skip[op.slot] {
			continue
		}
		l0.MulScalar(&op.a, &ys[op.slot])
		l1.MulScalar(&op.b, &xs[op.slot])
		switch {
		case one:
			// f = 1 * l: install the sparse line directly.
			f.SetZero()
			f.c0.b0.Set(&l0)
			f.c1.b0.Set(&l1)
			if op.monic {
				f.c1.b1.SetOne()
			}
			one = false
		case op.monic:
			f.mulLine(&f, &l0, &l1)
		default:
			var l gfP12
			l.c0.b0.Set(&l0)
			l.c1.b0.Set(&l1)
			f.Mul(&f, &l)
		}
	}
	return f
}

// PrecomputePairBatch records the Miller program of a fixed batch of G2
// points, to be evaluated against many G1 batches with
// PairBatchPrecomputed. The returned handle is immutable and safe for
// concurrent use.
func PrecomputePairBatch(qs []*G2) *PairingPrecomp {
	cqs := make([]*twistPoint, len(qs))
	for i, q := range qs {
		cqs[i] = &q.p
	}
	return recordMiller(cqs)
}

// PairBatchPrecomputed computes prod_i e(ps[i], Q_i) for the G2 batch
// recorded in pc, equal to PairBatch(ps, qs) for the original qs. It
// panics if len(ps) differs from the recorded batch size.
func PairBatchPrecomputed(pc *PairingPrecomp, ps []*G1) *GT {
	if len(ps) != pc.n {
		panic("bn256: mismatched pairing batch")
	}
	cps := make([]*curvePoint, len(ps))
	for i, p := range ps {
		cps[i] = &p.p
	}
	f := pc.miller(cps)
	gt := &GT{}
	gt.p = finalExponentiation(&f)
	return gt
}

// finalExponentiation raises f to (p^12-1)/r, mapping Miller-loop output
// into the order-r subgroup of Fp12 (GT). The easy part uses conjugation
// and the p^2 Frobenius; after it the element lies in the cyclotomic
// subgroup, so the hard part (p^4-p^2+1)/r runs as the Devegili et al.
// Frobenius decomposition in the BN parameter u — three exponentiations
// by the 63-bit u on cyclotomic squarings instead of one by a 1000-bit
// exponent. The tower tests pin it against the plain finalExpHard
// exponentiation.
func finalExponentiation(f *gfP12) gfP12 {
	var t0, t1 gfP12
	// f^(p^6-1) = conj(f) * f^-1
	t0.Conjugate(f)
	t1.Invert(f)
	t0.Mul(&t0, &t1)
	// ^(p^2+1)
	t1.Frobenius2(&t0)
	t0.Mul(&t0, &t1)
	// ^((p^4-p^2+1)/r)
	return hardExponentiation(&t0)
}

// expByU sets e = a^u for a in the cyclotomic subgroup, via plain
// square-and-multiply on cyclotomic squarings (u is 63 bits).
func (e *gfP12) expByU(a *gfP12) *gfP12 {
	var acc, base gfP12
	base.Set(a)
	acc.Set(a)
	for i := u.BitLen() - 2; i >= 0; i-- {
		acc.cyclotomicSquare(&acc)
		if u.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return e.Set(&acc)
}

// hardExponentiation computes a^((p^4-p^2+1)/r) for a in the cyclotomic
// subgroup, using the exact decomposition of the hard exponent into
// powers of p and u (Devegili, O hEigeartaigh, Scott, Dahab,
// "Implementing Cryptographic Pairings over Barreto-Naehrig Curves").
// Inversions become conjugations in the cyclotomic subgroup.
func hardExponentiation(a *gfP12) gfP12 {
	var fp, fp2, fp3 gfP12
	fp.Frobenius1(a)
	fp2.Frobenius2(a)
	fp3.Frobenius1(&fp2)

	var fu, fu2, fu3 gfP12
	fu.expByU(a)
	fu2.expByU(&fu)
	fu3.expByU(&fu2)

	var y3, fu2p, fu3p, y2 gfP12
	y3.Frobenius1(&fu)
	fu2p.Frobenius1(&fu2)
	fu3p.Frobenius1(&fu3)
	y2.Frobenius2(&fu2)

	var y0 gfP12
	y0.Mul(&fp, &fp2)
	y0.Mul(&y0, &fp3)

	var y1, y4, y5, y6 gfP12
	y1.Conjugate(a)
	y5.Conjugate(&fu2)
	y3.Conjugate(&y3)
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	var t0, t1 gfP12
	t0.cyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.cyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.cyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.cyclotomicSquare(&t0)
	t0.Mul(&t0, &t1)
	return t0
}
