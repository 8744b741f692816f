package bn256

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

func randScalar(t *testing.T) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, Order)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestG1GroupLaws(t *testing.T) {
	a, b := randScalar(t), randScalar(t)
	pa := new(G1).ScalarBaseMult(a)
	pb := new(G1).ScalarBaseMult(b)

	// g^a + g^b == g^(a+b)
	sum := new(G1).Add(pa, pb)
	ab := new(big.Int).Add(a, b)
	want := new(G1).ScalarBaseMult(ab)
	if !sum.Equal(want) {
		t.Fatal("G1 addition is not compatible with scalar multiplication")
	}

	// Commutativity.
	sum2 := new(G1).Add(pb, pa)
	if !sum.Equal(sum2) {
		t.Fatal("G1 addition is not commutative")
	}

	// P + (-P) == infinity.
	neg := new(G1).Neg(pa)
	id := new(G1).Add(pa, neg)
	if !id.IsInfinity() {
		t.Fatal("P + (-P) != infinity")
	}

	// P + infinity == P.
	inf := new(G1).SetInfinity()
	same := new(G1).Add(pa, inf)
	if !same.Equal(pa) {
		t.Fatal("P + infinity != P")
	}

	// Doubling consistency: P + P == 2P.
	dbl := new(G1).Add(pa, pa)
	twice := new(G1).ScalarMult(pa, big.NewInt(2))
	if !dbl.Equal(twice) {
		t.Fatal("P + P != 2P")
	}
}

func TestG2GroupLaws(t *testing.T) {
	a, b := randScalar(t), randScalar(t)
	pa := new(G2).ScalarBaseMult(a)
	pb := new(G2).ScalarBaseMult(b)

	sum := new(G2).Add(pa, pb)
	ab := new(big.Int).Add(a, b)
	want := new(G2).ScalarBaseMult(ab)
	if !sum.Equal(want) {
		t.Fatal("G2 addition is not compatible with scalar multiplication")
	}

	neg := new(G2).Neg(pa)
	id := new(G2).Add(pa, neg)
	if !id.IsInfinity() {
		t.Fatal("Q + (-Q) != infinity")
	}

	dbl := new(G2).Add(pa, pa)
	twice := new(G2).ScalarMult(pa, big.NewInt(2))
	if !dbl.Equal(twice) {
		t.Fatal("Q + Q != 2Q")
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		_, p, err := RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var q G1
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G1 marshal round trip failed")
		}
	}
	// Infinity round trip.
	inf := new(G1).SetInfinity()
	var q G1
	if err := q.Unmarshal(inf.Marshal()); err != nil {
		t.Fatal(err)
	}
	if !q.IsInfinity() {
		t.Fatal("G1 infinity round trip failed")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	for i := 0; i < 5; i++ {
		_, p, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var q G2
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !p.Equal(&q) {
			t.Fatal("G2 marshal round trip failed")
		}
	}
}

func TestG1UnmarshalRejectsOffCurve(t *testing.T) {
	_, p, err := RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Marshal()
	data[63] ^= 1 // corrupt y
	var q G1
	if err := q.Unmarshal(data); err == nil {
		t.Fatal("accepted an off-curve G1 point")
	}
	if err := q.Unmarshal(data[:10]); err == nil {
		t.Fatal("accepted a truncated G1 encoding")
	}
}

func TestG2UnmarshalRejectsOffCurve(t *testing.T) {
	_, p, err := RandomG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Marshal()
	data[127] ^= 1
	var q G2
	if err := q.Unmarshal(data); err == nil {
		t.Fatal("accepted an off-twist G2 point")
	}
}

func TestG2UnmarshalRejectsWrongSubgroup(t *testing.T) {
	// Build a twist point outside the order-r subgroup: a point with
	// order dividing the cofactor. Multiply a random twist point by r;
	// if the result is not infinity it has cofactor order.
	for n := int64(1); n < 60; n++ {
		var x, rhs, y gfP2
		x.a0 = *newGFp(n)
		x.a1 = *newGFp(3)
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &twistB)
		if !y.Sqrt(&rhs) {
			continue
		}
		var pt twistPoint
		pt.x, pt.y = x, y
		pt.z.SetOne()
		var small twistPoint
		small.Mul(&pt, Order)
		if small.IsInfinity() {
			continue // the point happened to lie in G2
		}
		small.MakeAffine()
		var g2 G2
		g2.p.Set(&small)
		data := g2.Marshal()
		var q G2
		if err := q.Unmarshal(data); err == nil {
			t.Fatal("accepted a G2 point outside the order-r subgroup")
		}
		return
	}
	t.Skip("no cofactor-order point found in scan range")
}

func TestPairingWithInfinity(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	infG1 := new(G1).SetInfinity()
	infG2 := new(G2).SetInfinity()
	if !Pair(infG1, q).IsOne() {
		t.Fatal("e(0, Q) != 1")
	}
	if !Pair(p, infG2).IsOne() {
		t.Fatal("e(P, 0) != 1")
	}
}

func TestPairingLinearityInEachArgument(t *testing.T) {
	a, b := randScalar(t), randScalar(t)
	p := new(G1).ScalarBaseMult(a)
	q := new(G2).ScalarBaseMult(b)
	k := big.NewInt(7)

	// e(kP, Q) == e(P, kQ) == e(P, Q)^k
	kp := new(G1).ScalarMult(p, k)
	kq := new(G2).ScalarMult(q, k)
	base := Pair(p, q)
	want := new(GT).Exp(base, k)
	if !Pair(kp, q).Equal(want) {
		t.Fatal("e(kP, Q) != e(P, Q)^k")
	}
	if !Pair(p, kq).Equal(want) {
		t.Fatal("e(P, kQ) != e(P, Q)^k")
	}
}

func TestPairBatchEmpty(t *testing.T) {
	if !PairBatch(nil, nil).IsOne() {
		t.Fatal("empty batch should be the identity")
	}
}

func TestPairBatchWithInfinitySlots(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	inf1 := new(G1).SetInfinity()
	inf2 := new(G2).SetInfinity()
	got := PairBatch([]*G1{p, inf1}, []*G2{q, inf2})
	want := Pair(p, q)
	if !got.Equal(want) {
		t.Fatal("infinity slots should contribute the identity")
	}
}

func TestNormHandlesNegativeScalars(t *testing.T) {
	k := big.NewInt(-3)
	p := new(G1).ScalarBaseMult(k)
	want := new(G1).ScalarBaseMult(new(big.Int).Sub(Order, big.NewInt(3)))
	if !p.Equal(want) {
		t.Fatal("negative scalar not normalized")
	}
}

// randTwistPoint returns a uniformly random point of E'(Fp2), which
// almost surely lies outside G2 (the twist cofactor is about p).
func randTwistPoint(t *testing.T) *twistPoint {
	t.Helper()
	for {
		x := randGFp2(t)
		var rhs, y gfP2
		rhs.Square(x)
		rhs.Mul(&rhs, x)
		rhs.Add(&rhs, &twistB)
		if !y.Sqrt(&rhs) {
			continue
		}
		pt := &twistPoint{x: *x, y: y}
		pt.z.SetOne()
		return pt
	}
}

// TestG2SubgroupCheckMatchesOrderCheck compares the fast membership
// test against the definition [r]Q == 0 on points inside G2, on random
// twist points, on their cofactor-order parts, and on points whose
// order involves the small prime factors 10069 and 5864401 of the twist
// cofactor. Both checks must agree on every point.
func TestG2SubgroupCheckMatchesOrderCheck(t *testing.T) {
	orderCheck := func(q *twistPoint) bool {
		var c twistPoint
		return c.Mul(q, Order).IsInfinity()
	}
	type tc struct {
		name string
		q    twistPoint
		in   bool
	}
	var cases []tc
	for i := 0; i < 3; i++ {
		_, g2, err := RandomG2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{"G2", g2.p, true})

		r := randTwistPoint(t)
		var cleared, torsion twistPoint
		cleared.Mul(r, twistCofactor)
		torsion.Mul(r, Order)
		cases = append(cases,
			tc{"random twist point", *r, false},
			tc{"cofactor-cleared", cleared, true},
			tc{"cofactor torsion", torsion, false})
		for _, l := range []int64{10069, 5864401} {
			k := new(big.Int).Div(twistCofactor, big.NewInt(l))
			if new(big.Int).Mul(k, big.NewInt(l)).Cmp(twistCofactor) != 0 {
				t.Fatalf("%d does not divide the twist cofactor", l)
			}
			var mixed, small twistPoint
			mixed.Mul(r, k)          // order l*r
			small.Mul(&mixed, Order) // order l
			cases = append(cases,
				tc{fmt.Sprintf("order %d*r", l), mixed, false},
				tc{fmt.Sprintf("order %d", l), small, false})
		}
	}
	for _, c := range cases {
		if c.q.IsInfinity() {
			continue
		}
		if !c.q.isOnTwist() {
			t.Fatalf("%s: test point is off the twist", c.name)
		}
		want := orderCheck(&c.q)
		if want != c.in {
			t.Fatalf("%s: [r]Q == 0 is %v, want %v", c.name, want, c.in)
		}
		if got := c.q.inG2(); got != want {
			t.Fatalf("%s: fast membership test says %v, [r]Q check says %v", c.name, got, want)
		}
		var a twistPoint
		a.Set(&c.q)
		a.MakeAffine()
		data := (&G2{p: a}).Marshal()
		if err := new(G2).Unmarshal(data); (err == nil) != want {
			t.Fatalf("%s: Unmarshal error %v, want membership %v", c.name, err, want)
		}
	}
}
