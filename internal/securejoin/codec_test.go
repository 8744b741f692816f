package securejoin

import (
	"bytes"
	"crypto/rand"
	"strings"
	"testing"

	"repro/internal/bn256"
	"repro/internal/ipe"
)

func TestTokenCodecRoundTrip(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := q.TokenA.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var tk Token
	if err := tk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	data2, err := tk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("token round trip not stable")
	}

	// The decoded token must behave identically.
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decrypt(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decrypt(&tk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(d1, d2) {
		t.Fatal("decoded token produces different D values")
	}
}

func TestCiphertextCodecRoundTrip(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var ct2 RowCiphertext
	if err := ct2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decrypt(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decrypt(q.TokenA, &ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(d1, d2) {
		t.Fatal("decoded ciphertext produces different D values")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	var tk Token
	if err := tk.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil token encoding accepted")
	}
	if err := tk.UnmarshalBinary([]byte{0, 0, 0, 2, 1, 2, 3}); err == nil {
		t.Fatal("truncated token encoding accepted")
	}
	var ct RowCiphertext
	if err := ct.UnmarshalBinary([]byte{0, 0}); err == nil {
		t.Fatal("short ciphertext encoding accepted")
	}
	// Correct length but invalid group elements.
	junk := make([]byte, 4+g1Size)
	junk[3] = 1
	for i := 4; i < len(junk); i++ {
		junk[i] = 0xff
	}
	if err := ct.UnmarshalBinary(junk); err == nil {
		t.Fatal("non-curve ciphertext element accepted")
	}
}

// TestTamperedCiphertextDoesNotMatch injects a fault: flipping any
// group element of a row ciphertext must break the match (failure
// injection for the integrity of the match semantics).
func TestTamperedCiphertextDoesNotMatch(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	row := Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}}
	ct, err := s.Encrypt(row)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Encrypt(row)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{0: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	dRef, err := Decrypt(q.TokenB, ref)
	if err != nil {
		t.Fatal(err)
	}
	dOrig, err := Decrypt(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(dOrig, dRef) {
		t.Fatal("sanity: untampered rows should match")
	}

	// Tamper: swap two ciphertext elements — each remains a valid group
	// element, but the encoded vector changes.
	swapped := append([]*bn256.G1{}, ct.C.Elems...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	tampered := &RowCiphertext{C: &ipe.CiphertextM{Elems: swapped}}

	dTampered, err := Decrypt(q.TokenA, tampered)
	if err != nil {
		t.Fatal(err)
	}
	if Match(dTampered, dRef) {
		t.Fatal("tampered ciphertext still matches")
	}
}

// preSwapEncoding builds a count-prefixed run of n valid elements of
// the group a value used before tokens moved to G2 and ciphertexts to
// G1: g2 selects G2 elements (the old ciphertext layout), otherwise G1
// (the old token layout).
func preSwapEncoding(t *testing.T, n int, g2 bool) []byte {
	t.Helper()
	out := []byte{0, 0, 0, byte(n)}
	for i := 0; i < n; i++ {
		var err error
		var e interface{ Marshal() []byte }
		if g2 {
			_, e, err = bn256.RandomG2(rand.Reader)
		} else {
			_, e, err = bn256.RandomG1(rand.Reader)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e.Marshal()...)
	}
	return out
}

// TestCodecRejectsPreSwapEncodings: a ciphertext of G2 elements or a
// token of G1 elements, the layouts written before the group swap, must
// fail with an error that names the retired encoding.
func TestCodecRejectsPreSwapEncodings(t *testing.T) {
	const d = 5
	var ct RowCiphertext
	err := ct.UnmarshalBinary(preSwapEncoding(t, d, true))
	if err == nil || !strings.Contains(err.Error(), "retired encoding") {
		t.Fatalf("pre-swap ciphertext: err = %v, want the retired-encoding error", err)
	}
	var tk Token
	err = tk.UnmarshalBinary(preSwapEncoding(t, d, false))
	if err == nil || !strings.Contains(err.Error(), "retired encoding") {
		t.Fatalf("pre-swap token: err = %v, want the retired-encoding error", err)
	}
}

// TestCodecSizes pins the encoded sizes for d = 5 (m = 1, t = 1): 64-byte
// G1 elements per ciphertext slot and 128-byte G2 elements per token
// slot, each behind a 4-byte count.
func TestCodecSizes(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 324 {
		t.Fatalf("d=5 ciphertext encodes to %d bytes, want 324", len(data))
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := q.TokenA.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(tok) != 4+5*128 {
		t.Fatalf("d=5 token encodes to %d bytes, want %d", len(tok), 4+5*128)
	}
}
