package bn256

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// Independent validation of the Jacobian group law: a textbook affine
// implementation over big.Int, sharing no code with the production
// formulas, must agree with curvePoint on random inputs.

type affinePoint struct {
	x, y *big.Int
	inf  bool
}

func affineFromCurvePoint(c *curvePoint) affinePoint {
	if c.IsInfinity() {
		return affinePoint{inf: true}
	}
	var a curvePoint
	a.Set(c)
	a.MakeAffine()
	return affinePoint{x: a.x.BigInt(), y: a.y.BigInt()}
}

func affineAdd(p, q affinePoint) affinePoint {
	if p.inf {
		return q
	}
	if q.inf {
		return p
	}
	if p.x.Cmp(q.x) == 0 {
		sum := new(big.Int).Add(p.y, q.y)
		sum.Mod(sum, P)
		if sum.Sign() == 0 {
			return affinePoint{inf: true}
		}
		// Doubling: lambda = 3x^2 / 2y.
		num := new(big.Int).Mul(p.x, p.x)
		num.Mul(num, big.NewInt(3))
		den := new(big.Int).Lsh(p.y, 1)
		den.ModInverse(den, P)
		lambda := num.Mul(num, den)
		lambda.Mod(lambda, P)
		return affineChord(p, p, lambda)
	}
	// Addition: lambda = (y2 - y1)/(x2 - x1).
	num := new(big.Int).Sub(q.y, p.y)
	den := new(big.Int).Sub(q.x, p.x)
	den.Mod(den, P)
	den.ModInverse(den, P)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, P)
	return affineChord(p, q, lambda)
}

func affineChord(p, q affinePoint, lambda *big.Int) affinePoint {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, p.x)
	x3.Sub(x3, q.x)
	x3.Mod(x3, P)
	y3 := new(big.Int).Sub(p.x, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, p.y)
	y3.Mod(y3, P)
	return affinePoint{x: x3, y: y3}
}

func (p affinePoint) equal(q affinePoint) bool {
	if p.inf || q.inf {
		return p.inf == q.inf
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

func TestJacobianAgainstAffineReference(t *testing.T) {
	for i := 0; i < 30; i++ {
		ka, _ := rand.Int(rand.Reader, Order)
		kb, _ := rand.Int(rand.Reader, Order)
		var pa, pb, sum curvePoint
		pa.Mul(&curveGen, ka)
		pb.Mul(&curveGen, kb)
		sum.Add(&pa, &pb)

		ra := affineFromCurvePoint(&pa)
		rb := affineFromCurvePoint(&pb)
		want := affineAdd(ra, rb)
		got := affineFromCurvePoint(&sum)
		if !got.equal(want) {
			t.Fatalf("Jacobian addition disagrees with affine reference (iteration %d)", i)
		}

		var dbl curvePoint
		dbl.Double(&pa)
		wantDbl := affineAdd(ra, ra)
		gotDbl := affineFromCurvePoint(&dbl)
		if !gotDbl.equal(wantDbl) {
			t.Fatalf("Jacobian doubling disagrees with affine reference (iteration %d)", i)
		}
	}
}

// TestScalarMultAgainstRepeatedAddition validates Mul against the
// definition for small scalars.
func TestScalarMultAgainstRepeatedAddition(t *testing.T) {
	var acc curvePoint
	acc.SetInfinity()
	for k := int64(1); k <= 25; k++ {
		acc.Add(&acc, &curveGen)
		var viaMul curvePoint
		viaMul.Mul(&curveGen, big.NewInt(k))
		if !acc.Equal(&viaMul) {
			t.Fatalf("k*G != G+...+G at k=%d", k)
		}
	}
}

// TestTwistScalarMultAgainstRepeatedAddition does the same on G2.
func TestTwistScalarMultAgainstRepeatedAddition(t *testing.T) {
	var acc twistPoint
	acc.SetInfinity()
	for k := int64(1); k <= 10; k++ {
		acc.Add(&acc, &twistGen)
		var viaMul twistPoint
		viaMul.Mul(&twistGen, big.NewInt(k))
		if !acc.Equal(&viaMul) {
			t.Fatalf("k*G2 != repeated addition at k=%d", k)
		}
	}
}

// A textbook optimal ate pairing for cross-checking the recorded
// Miller program: the G2 point is untwisted into E(Fp12), every line is
// evaluated unnormalized with an Fp12 inversion per slope, and pi is
// the plain coordinate-wise p-power Frobenius.

type point12 struct {
	x, y gfP12
}

func untwist(q *twistPoint) point12 {
	var a twistPoint
	a.Set(q)
	a.MakeAffine()
	var r point12
	r.x.c0.b1.Set(&a.x) // omega^2 x
	r.y.c1.b1.Set(&a.y) // omega^3 y
	return r
}

// refLine evaluates at p the line through a and b (the tangent when
// b == nil) and returns it with a + b.
func refLine(a, b *point12, p *point12) (gfP12, point12) {
	var lambda, den, t gfP12
	x2 := &a.x
	if b == nil {
		lambda.Square(&a.x)
		t.Add(&lambda, &lambda)
		lambda.Add(&lambda, &t)
		den.Add(&a.y, &a.y)
	} else {
		x2 = &b.x
		lambda.Sub(&b.y, &a.y)
		den.Sub(&b.x, &a.x)
	}
	den.Invert(&den)
	lambda.Mul(&lambda, &den)

	var l gfP12
	t.Sub(&p.x, &a.x)
	t.Mul(&t, &lambda)
	l.Sub(&p.y, &a.y)
	l.Sub(&l, &t)

	var sum point12
	sum.x.Square(&lambda)
	sum.x.Sub(&sum.x, &a.x)
	sum.x.Sub(&sum.x, x2)
	sum.y.Sub(&a.x, &sum.x)
	sum.y.Mul(&sum.y, &lambda)
	sum.y.Sub(&sum.y, &a.y)
	return l, sum
}

func refOptimalAte(p *curvePoint, q *twistPoint) gfP12 {
	var pa curvePoint
	pa.Set(p)
	pa.MakeAffine()
	var p12 point12
	p12.x.c0.b0.a0.Set(&pa.x)
	p12.y.c0.b0.a0.Set(&pa.y)

	q12 := untwist(q)
	negQ := q12
	negQ.y.Sub(new(gfP12), &negQ.y)
	tp := q12
	var f, l gfP12
	f.SetOne()
	for i := len(ateLoopNAF) - 2; i >= 0; i-- {
		f.Square(&f)
		l, tp = refLine(&tp, nil, &p12)
		f.Mul(&f, &l)
		switch ateLoopNAF[i] {
		case 1:
			l, tp = refLine(&tp, &q12, &p12)
			f.Mul(&f, &l)
		case -1:
			l, tp = refLine(&tp, &negQ, &p12)
			f.Mul(&f, &l)
		}
	}
	var q1, q2 point12
	q1.x.Frobenius1(&q12.x)
	q1.y.Frobenius1(&q12.y)
	q2.x.Frobenius2(&q12.x)
	q2.y.Frobenius2(&q12.y)
	q2.y.Sub(new(gfP12), &q2.y)
	l, tp = refLine(&tp, &q1, &p12)
	f.Mul(&f, &l)
	l, _ = refLine(&tp, &q2, &p12)
	f.Mul(&f, &l)
	return finalExponentiation(&f)
}

// TestOptimalAteAgainstTextbook pins Pair, whose lines are recorded on
// the twist and normalized by their Fp2 constants, to the textbook
// loop above on random inputs.
func TestOptimalAteAgainstTextbook(t *testing.T) {
	for i := 0; i < 3; i++ {
		_, p, err := RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		_, q, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := refOptimalAte(&p.p, &q.p)
		if got := Pair(p, q); !got.p.Equal(&want) {
			t.Fatalf("iteration %d: Pair disagrees with the textbook optimal ate pairing", i)
		}
	}
}
