package securejoin

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bn256"
	"repro/internal/ipe"
)

// Wire encodings for tokens and row ciphertexts, used by the TCP
// client/server protocol and by anything that persists encrypted tables.
// Both are a 4-byte big-endian element count followed by fixed-size
// group-element encodings: tokens carry 128-byte G2 elements and row
// ciphertexts 64-byte G1 elements, so a d=5 row encodes to 324 bytes.
//
// Before tokens moved to G2, the groups were the other way round
// (64-byte G1 token elements, 128-byte G2 ciphertext elements). The
// element count makes an encoding of that layout recognizable, and the
// decoders reject it by name rather than misreading it.

const (
	g1Size = 64
	g2Size = 128
)

// MarshalBinary encodes the token.
func (t *Token) MarshalBinary() ([]byte, error) {
	n := len(t.Tk.Elems)
	out := make([]byte, 4, 4+n*g2Size)
	binary.BigEndian.PutUint32(out, uint32(n))
	for _, e := range t.Tk.Elems {
		out = append(out, e.Marshal()...)
	}
	return out, nil
}

// UnmarshalBinary decodes a token produced by MarshalBinary, validating
// every group element (twist equation and G2 subgroup membership).
func (t *Token) UnmarshalBinary(data []byte) error {
	n, body, err := elemsBody("token", data, g2Size, g1Size)
	if err != nil {
		return err
	}
	elems := make([]*bn256.G2, n)
	for i := range elems {
		elems[i] = new(bn256.G2)
		if err := elems[i].Unmarshal(body[i*g2Size : (i+1)*g2Size]); err != nil {
			return fmt.Errorf("securejoin: token element %d: %w", i, err)
		}
	}
	t.Tk = &ipe.Token{Elems: elems}
	return nil
}

// MarshalBinary encodes the row ciphertext.
func (ct *RowCiphertext) MarshalBinary() ([]byte, error) {
	n := len(ct.C.Elems)
	out := make([]byte, 4, 4+n*g1Size)
	binary.BigEndian.PutUint32(out, uint32(n))
	for _, e := range ct.C.Elems {
		out = append(out, e.Marshal()...)
	}
	return out, nil
}

// UnmarshalBinary decodes a row ciphertext produced by MarshalBinary,
// validating every group element. G1 has cofactor 1, so the curve
// equation check in G1.Unmarshal is a full subgroup check and a
// malicious encoder cannot smuggle small-order points.
func (ct *RowCiphertext) UnmarshalBinary(data []byte) error {
	n, body, err := elemsBody("ciphertext", data, g1Size, g2Size)
	if err != nil {
		return err
	}
	elems := make([]*bn256.G1, n)
	for i := range elems {
		elems[i] = new(bn256.G1)
		if err := elems[i].Unmarshal(body[i*g1Size : (i+1)*g1Size]); err != nil {
			return fmt.Errorf("securejoin: ciphertext element %d: %w", i, err)
		}
	}
	ct.C = &ipe.CiphertextM{Elems: elems}
	return nil
}

// elemsBody splits a count-prefixed run of size-byte group elements
// into the count and the element bytes. legacySize is the element size
// the same value had before tokens and ciphertexts swapped groups; an
// encoding of that layout gets an error naming it.
func elemsBody(what string, data []byte, size, legacySize int) (int, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("securejoin: %s encoding too short", what)
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n > 0 && len(data) == n*legacySize {
		return 0, nil, fmt.Errorf("securejoin: %s uses the retired encoding with %d-byte group elements "+
			"(written before tokens moved to G2 and ciphertexts to G1); re-encrypt and upload the data again",
			what, legacySize)
	}
	if len(data) != n*size {
		return 0, nil, fmt.Errorf("securejoin: %s encoding has %d trailing bytes, want %d", what, len(data), n*size)
	}
	return n, data, nil
}
