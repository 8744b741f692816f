// Package bn256 implements a 256-bit Barreto–Naehrig pairing-friendly
// elliptic curve with groups G1, G2 and GT of prime order Order, and the
// bilinear optimal ate pairing e: G1 x G2 -> GT.
//
// The curve is defined by the BN parameter u below; the field prime p,
// the group order r, the trace of Frobenius t and the G2 twist cofactor
// are all derived from u at package initialization via the standard BN
// polynomial parametrization:
//
//	p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
//	r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
//	t = 6u^2 + 1
//
// G1 is the group of points of E: y^2 = x^3 + 3 over Fp with generator
// (1, 2). G2 is the order-r subgroup of the sextic D-twist
// E': y^2 = x^3 + 3/xi over Fp2, and GT is the order-r subgroup of
// Fp12*. The pairing is the optimal ate pairing of Vercauteren
// ("Optimal Pairings", IEEE TIT 2010): a Miller loop that walks
// multiples of the G2 point over the NAF of 6u+2 (66 digits), closed by
// two lines through the Frobenius twists pi(Q) and -pi^2(Q), then a
// final exponentiation to the power (p^12-1)/r. The loop depends only
// on the G2 argument, so it is recorded once per G2 batch and replayed
// at any G1 points (see PrecomputePairBatch).
//
// The implementation is self-contained (standard library only): Fp uses
// 4x64-bit Montgomery limbs and the extension tower Fp2/Fp6/Fp12 is
// built as Fp2 = Fp(i) with i^2 = -1, Fp6 = Fp2[tau]/(tau^3 - xi) and
// Fp12 = Fp6[omega]/(omega^2 - tau).
package bn256

import (
	"math/big"
)

// u is the BN curve parameter. This is the same parameter used by the
// original golang.org/x/crypto/bn256 curve, giving a 256-bit prime field.
var u = bigFromBase10("4965661367192848881")

var (
	// P is the prime order of the base field Fp.
	P *big.Int
	// Order is the prime order r of G1, G2 and GT.
	Order *big.Int
	// trace is the trace of Frobenius t = 6u^2 + 1.
	trace *big.Int
	// twistCofactor is #E'(Fp2)/r = 2p - r = p - 1 + t.
	twistCofactor *big.Int
	// finalExpHard is (p^4 - p^2 + 1)/r, the hard part of the final
	// exponentiation.
	finalExpHard *big.Int
	// ateLoopNAF is the non-adjacent form of the optimal ate loop
	// length 6u+2, least significant digit first.
	ateLoopNAF []int8
)

func bigFromBase10(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn256: invalid base-10 constant: " + s)
	}
	return n
}

// initParams derives p, r, t and the derived exponents from u.
func initParams() {
	one := big.NewInt(1)
	u2 := new(big.Int).Mul(u, u)
	u3 := new(big.Int).Mul(u2, u)
	u4 := new(big.Int).Mul(u3, u)

	// p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
	P = new(big.Int).Mul(u4, big.NewInt(36))
	P.Add(P, new(big.Int).Mul(u3, big.NewInt(36)))
	P.Add(P, new(big.Int).Mul(u2, big.NewInt(24)))
	P.Add(P, new(big.Int).Mul(u, big.NewInt(6)))
	P.Add(P, one)

	// r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
	Order = new(big.Int).Mul(u4, big.NewInt(36))
	Order.Add(Order, new(big.Int).Mul(u3, big.NewInt(36)))
	Order.Add(Order, new(big.Int).Mul(u2, big.NewInt(18)))
	Order.Add(Order, new(big.Int).Mul(u, big.NewInt(6)))
	Order.Add(Order, one)

	// t = 6u^2 + 1
	trace = new(big.Int).Mul(u2, big.NewInt(6))
	trace.Add(trace, one)

	// twist cofactor c2 = p - 1 + t
	twistCofactor = new(big.Int).Add(P, trace)
	twistCofactor.Sub(twistCofactor, one)

	// hard part of the final exponentiation: (p^4 - p^2 + 1)/r
	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, one)
	rem := new(big.Int)
	h.DivMod(h, Order, rem)
	if rem.Sign() != 0 {
		panic("bn256: (p^4 - p^2 + 1) not divisible by r")
	}
	finalExpHard = h

	loop := new(big.Int).Mul(u, big.NewInt(6))
	ateLoopNAF = naf(loop.Add(loop, big.NewInt(2)))
}

// naf returns the non-adjacent form of k > 0, least significant digit
// first: digits in {-1, 0, 1} with no two adjacent non-zero digits.
func naf(k *big.Int) []int8 {
	k = new(big.Int).Set(k)
	var digits []int8
	for k.Sign() > 0 {
		var d int8
		if k.Bit(0) == 1 {
			d = 2 - int8(k.Bit(1)<<1|k.Bit(0)) // k mod 4 = 1 -> 1, 3 -> -1
			k.Sub(k, big.NewInt(int64(d)))
		}
		digits = append(digits, d)
		k.Rsh(k, 1)
	}
	return digits
}

func init() {
	initParams()
	initGFp()
	initGFp2()
	initTower()
	initCurve()
	initTwist()
}
